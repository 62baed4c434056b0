// Package audio synthesizes the multi-speaker audio material the voice
// module is exercised on. The paper integrates A. Cohen's voice-processing
// library and browses real consultation recordings; neither the library
// nor recordings are available, so this package generates the closest
// synthetic equivalent with known ground truth: utterances built from a
// small lexicon of formant-coded "words", spoken by speakers with
// distinct pitch and vocal-tract characteristics, interleaved with music,
// background noise and silence. The known segment and word boundaries are
// what lets EXPERIMENTS.md report segmentation and spotting accuracy —
// something the paper itself could only demonstrate by screenshot.
package audio

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// DefaultSampleRate is the synthesis rate in Hz. 8 kHz telephone-band
// audio matches the tele-consulting setting.
const DefaultSampleRate = 8000

// SegmentType classifies a stretch of the audio timeline, mirroring the
// paper's segmentation targets: "the audio data may contain speech, music,
// or audio artifacts, which are automatically segmented".
type SegmentType int

// Segment types.
const (
	Silence SegmentType = iota
	Speech
	Music
	Artifact
)

// String returns the type's lowercase name.
func (s SegmentType) String() string {
	switch s {
	case Silence:
		return "silence"
	case Speech:
		return "speech"
	case Music:
		return "music"
	case Artifact:
		return "artifact"
	default:
		return fmt.Sprintf("SegmentType(%d)", int(s))
	}
}

// WordMark records where one spoken word lands in the signal.
type WordMark struct {
	Word       string
	Start, End int // sample indices, [Start, End)
}

// Segment is a ground-truth annotation of the composed signal.
type Segment struct {
	Start, End int // sample indices, [Start, End)
	Type       SegmentType
	Speaker    string     // non-empty for Speech
	Words      []WordMark // word positions for Speech
}

// MarshalSegments encodes ground truth for storage in the audio object's
// FLD_SECTORS column.
func MarshalSegments(segs []Segment) ([]byte, error) {
	return json.Marshal(segs)
}

// Phone is one steady-state speech unit described by its two lowest
// formant frequencies in Hz.
type Phone struct {
	F1, F2 float64
}

// Lexicon maps word names to their phone sequences.
type Lexicon map[string][]Phone

// DefaultLexicon returns the built-in vocabulary used by examples and
// experiments. The formant patterns are loosely modeled on cardinal
// vowels and kept well separated so that keyword models are learnable
// from few examples.
func DefaultLexicon() Lexicon {
	return Lexicon{
		"patient":  {{300, 2300}, {700, 1200}, {400, 1800}},
		"tumor":    {{350, 800}, {500, 1000}, {300, 900}},
		"normal":   {{650, 1100}, {400, 2000}, {550, 900}},
		"urgent":   {{500, 1500}, {300, 2500}, {600, 1300}},
		"biopsy":   {{280, 2500}, {600, 900}, {350, 2100}},
		"negative": {{450, 1700}, {320, 2400}, {700, 1050}, {380, 1900}},
	}
}

// Speaker is a synthetic voice: a fundamental frequency, a vocal-tract
// length factor that shifts all formants, and a spectral tilt.
type Speaker struct {
	Name string
	// Pitch is the fundamental frequency in Hz.
	Pitch float64
	// Tract scales formant frequencies (shorter tract → higher formants).
	Tract float64
	// Tilt controls high-frequency rolloff per harmonic (0..1, higher =
	// darker voice).
	Tilt float64
}

// DefaultSpeakers returns a panel of clearly distinct voices.
func DefaultSpeakers() []Speaker {
	return []Speaker{
		{Name: "dr-adams", Pitch: 110, Tract: 1.0, Tilt: 0.70},
		{Name: "dr-baker", Pitch: 205, Tract: 1.17, Tilt: 0.55},
		{Name: "dr-chen", Pitch: 150, Tract: 0.92, Tilt: 0.85},
		{Name: "dr-davis", Pitch: 255, Tract: 1.25, Tilt: 0.45},
	}
}

// Synthesizer generates waveforms. It is deterministic given its seed.
type Synthesizer struct {
	SampleRate float64
	Lexicon    Lexicon
	rng        *rand.Rand
}

// NewSynthesizer returns a synthesizer at the default sample rate.
func NewSynthesizer(seed int64) *Synthesizer {
	return &Synthesizer{
		SampleRate: DefaultSampleRate,
		Lexicon:    DefaultLexicon(),
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// phoneDur is the duration of one phone in seconds (with jitter).
const phoneDur = 0.09

// wordGap is the brief intra-utterance pause between words, seconds.
const wordGap = 0.04

// synthPhone renders one phone of the speaker as a harmonic source shaped
// by two formant resonances.
func (s *Synthesizer) synthPhone(sp Speaker, ph Phone, samples int) []float64 {
	out := make([]float64, samples)
	f1 := ph.F1 * sp.Tract
	f2 := ph.F2 * sp.Tract
	nyquist := s.SampleRate / 2
	pitch := sp.Pitch * (1 + 0.02*s.rng.NormFloat64())
	// Harmonic amplitudes: resonance gains near the formants, spectral tilt.
	maxH := int(nyquist / pitch)
	if maxH < 1 {
		maxH = 1
	}
	amps := make([]float64, maxH+1)
	phases := make([]float64, maxH+1)
	for h := 1; h <= maxH; h++ {
		f := float64(h) * pitch
		res := math.Exp(-sq(f-f1)/(2*sq(120))) + 0.7*math.Exp(-sq(f-f2)/(2*sq(160)))
		tilt := math.Pow(sp.Tilt, float64(h-1))
		amps[h] = (0.05 + res) * tilt
		phases[h] = s.rng.Float64() * 2 * math.Pi
	}
	for i := 0; i < samples; i++ {
		t := float64(i) / s.SampleRate
		var v float64
		for h := 1; h <= maxH; h++ {
			v += amps[h] * math.Sin(2*math.Pi*float64(h)*pitch*t+phases[h])
		}
		// Attack/decay envelope.
		env := 1.0
		edge := int(0.01 * s.SampleRate)
		if i < edge {
			env = float64(i) / float64(edge)
		} else if samples-i < edge {
			env = float64(samples-i) / float64(edge)
		}
		out[i] = 0.25*v*env + 0.002*s.rng.NormFloat64()
	}
	return out
}

func sq(x float64) float64 { return x * x }

// Utterance synthesizes the given word sequence in the speaker's voice,
// returning the waveform and the word boundaries within it.
func (s *Synthesizer) Utterance(sp Speaker, words []string) ([]float64, []WordMark, error) {
	var signal []float64
	var marks []WordMark
	gap := int(wordGap * s.SampleRate)
	for wi, w := range words {
		phones, ok := s.Lexicon[w]
		if !ok {
			return nil, nil, fmt.Errorf("audio: word %q not in lexicon", w)
		}
		if wi > 0 {
			signal = append(signal, make([]float64, gap)...)
		}
		start := len(signal)
		for _, ph := range phones {
			dur := phoneDur * (1 + 0.1*s.rng.NormFloat64())
			if dur < 0.05 {
				dur = 0.05
			}
			signal = append(signal, s.synthPhone(sp, ph, int(dur*s.SampleRate))...)
		}
		marks = append(marks, WordMark{Word: w, Start: start, End: len(signal)})
	}
	return signal, marks, nil
}

// Music synthesizes dur seconds of sustained triadic chords with rich
// harmonics — spectrally stable compared to speech, which is what the
// segmenter keys on.
func (s *Synthesizer) Music(dur float64) []float64 {
	n := int(dur * s.SampleRate)
	out := make([]float64, n)
	roots := []float64{220, 261.63, 293.66, 329.63}
	chordLen := int(0.5 * s.SampleRate)
	for start := 0; start < n; start += chordLen {
		root := roots[s.rng.Intn(len(roots))]
		freqs := []float64{root, root * 5 / 4, root * 3 / 2, root * 2}
		end := start + chordLen
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			t := float64(i) / s.SampleRate
			var v float64
			for _, f := range freqs {
				for h := 1; h <= 3; h++ {
					v += math.Sin(2*math.Pi*f*float64(h)*t) / float64(h*len(freqs))
				}
			}
			out[i] = 0.22*v + 0.001*s.rng.NormFloat64()
		}
	}
	return out
}

// Noise synthesizes dur seconds of white noise at the given amplitude
// (an audio "artifact" in the paper's terms).
func (s *Synthesizer) Noise(dur, amp float64) []float64 {
	n := int(dur * s.SampleRate)
	out := make([]float64, n)
	for i := range out {
		out[i] = amp * s.rng.NormFloat64()
	}
	return out
}

// Silence returns dur seconds of near-silence (tiny sensor noise so that
// log energies stay finite).
func (s *Synthesizer) Silence(dur float64) []float64 {
	n := int(dur * s.SampleRate)
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.0005 * s.rng.NormFloat64()
	}
	return out
}

// ScriptItem is one entry of a composition script.
type ScriptItem struct {
	Type    SegmentType
	Dur     float64  // seconds; ignored for Speech (utterance length rules)
	Speaker Speaker  // Speech only
	Words   []string // Speech only
	Amp     float64  // Artifact amplitude (default 0.1)
}

// Compose renders a script into a single waveform with ground-truth
// segments. Consecutive items are separated by nothing; include explicit
// Silence items for pauses.
func (s *Synthesizer) Compose(script []ScriptItem) ([]float64, []Segment, error) {
	var signal []float64
	var segs []Segment
	for _, item := range script {
		start := len(signal)
		switch item.Type {
		case Silence:
			signal = append(signal, s.Silence(item.Dur)...)
			segs = append(segs, Segment{Start: start, End: len(signal), Type: Silence})
		case Music:
			signal = append(signal, s.Music(item.Dur)...)
			segs = append(segs, Segment{Start: start, End: len(signal), Type: Music})
		case Artifact:
			amp := item.Amp
			if amp == 0 {
				amp = 0.1
			}
			signal = append(signal, s.Noise(item.Dur, amp)...)
			segs = append(segs, Segment{Start: start, End: len(signal), Type: Artifact})
		case Speech:
			wave, marks, err := s.Utterance(item.Speaker, item.Words)
			if err != nil {
				return nil, nil, err
			}
			for i := range marks {
				marks[i].Start += start
				marks[i].End += start
			}
			signal = append(signal, wave...)
			segs = append(segs, Segment{
				Start: start, End: len(signal), Type: Speech,
				Speaker: item.Speaker.Name, Words: marks,
			})
		default:
			return nil, nil, fmt.Errorf("audio: unknown script item type %v", item.Type)
		}
	}
	return signal, segs, nil
}
