package audio

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mmconf/internal/media/dsp"
)

func TestUtteranceStructure(t *testing.T) {
	s := NewSynthesizer(1)
	sp := DefaultSpeakers()[0]
	wave, marks, err := s.Utterance(sp, []string{"patient", "tumor"})
	if err != nil {
		t.Fatalf("Utterance: %v", err)
	}
	if len(wave) == 0 {
		t.Fatal("empty waveform")
	}
	if len(marks) != 2 {
		t.Fatalf("marks = %d", len(marks))
	}
	if marks[0].Word != "patient" || marks[1].Word != "tumor" {
		t.Errorf("words = %v", marks)
	}
	// Marks must be ordered, within range, non-overlapping.
	if marks[0].Start != 0 || marks[0].End <= marks[0].Start {
		t.Errorf("first mark %+v", marks[0])
	}
	if marks[1].Start < marks[0].End {
		t.Errorf("overlapping marks: %+v", marks)
	}
	if marks[1].End != len(wave) {
		t.Errorf("last mark ends at %d, wave len %d", marks[1].End, len(wave))
	}
	// Waveform must be bounded.
	for i, v := range wave {
		if math.Abs(v) > 4 || math.IsNaN(v) {
			t.Fatalf("sample %d out of range: %v", i, v)
		}
	}
}

func TestUtteranceUnknownWord(t *testing.T) {
	s := NewSynthesizer(1)
	if _, _, err := s.Utterance(DefaultSpeakers()[0], []string{"xylophone"}); err == nil {
		t.Error("unknown word accepted")
	}
}

func TestSpeechLouderThanSilence(t *testing.T) {
	s := NewSynthesizer(2)
	speech, _, err := s.Utterance(DefaultSpeakers()[1], []string{"normal"})
	if err != nil {
		t.Fatal(err)
	}
	silence := s.Silence(1.0)
	if dsp.Energy(speech) <= dsp.Energy(silence)+3 {
		t.Errorf("speech energy %v not clearly above silence %v",
			dsp.Energy(speech), dsp.Energy(silence))
	}
}

func TestSpeakersAreSpectrallyDistinct(t *testing.T) {
	s := NewSynthesizer(3)
	e, err := dsp.NewExtractor(DefaultSampleRate, 256, 128, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	speakers := DefaultSpeakers()
	means := make([][]float64, len(speakers))
	for si, sp := range speakers {
		wave, _, err := s.Utterance(sp, []string{"patient", "normal", "urgent"})
		if err != nil {
			t.Fatal(err)
		}
		feats, err := e.Features(wave)
		if err != nil {
			t.Fatal(err)
		}
		mean := make([]float64, e.Dim())
		for _, f := range feats {
			for d := range mean {
				mean[d] += f[d]
			}
		}
		for d := range mean {
			mean[d] /= float64(len(feats))
		}
		means[si] = mean
	}
	for i := 0; i < len(speakers); i++ {
		for j := i + 1; j < len(speakers); j++ {
			var dist float64
			for d := range means[i] {
				dist += sq(means[i][d] - means[j][d])
			}
			if math.Sqrt(dist) < 0.5 {
				t.Errorf("speakers %s and %s too similar (dist %.3f)",
					speakers[i].Name, speakers[j].Name, math.Sqrt(dist))
			}
		}
	}
}

func TestComposeGroundTruth(t *testing.T) {
	s := NewSynthesizer(4)
	sp := DefaultSpeakers()[0]
	script := []ScriptItem{
		{Type: Silence, Dur: 0.5},
		{Type: Speech, Speaker: sp, Words: []string{"patient", "urgent"}},
		{Type: Music, Dur: 1.0},
		{Type: Artifact, Dur: 0.3},
		{Type: Silence, Dur: 0.2},
	}
	wave, segs, err := s.Compose(script)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if len(segs) != 5 {
		t.Fatalf("segments = %d", len(segs))
	}
	// Segments must tile the waveform exactly.
	if segs[0].Start != 0 || segs[len(segs)-1].End != len(wave) {
		t.Errorf("segments do not span the signal")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start != segs[i-1].End {
			t.Errorf("gap between segments %d and %d", i-1, i)
		}
	}
	if segs[1].Type != Speech || segs[1].Speaker != sp.Name {
		t.Errorf("speech segment: %+v", segs[1])
	}
	if len(segs[1].Words) != 2 {
		t.Errorf("word marks = %d", len(segs[1].Words))
	}
	for _, wm := range segs[1].Words {
		if wm.Start < segs[1].Start || wm.End > segs[1].End {
			t.Errorf("word mark %+v outside its segment %+v", wm, segs[1])
		}
	}
	// Durations must be honored.
	if got := segs[0].End - segs[0].Start; got != int(0.5*DefaultSampleRate) {
		t.Errorf("silence length = %d", got)
	}
	if got := segs[2].End - segs[2].Start; got != int(1.0*DefaultSampleRate) {
		t.Errorf("music length = %d", got)
	}
}

func TestComposeUnknownType(t *testing.T) {
	s := NewSynthesizer(5)
	if _, _, err := s.Compose([]ScriptItem{{Type: SegmentType(99), Dur: 1}}); err == nil {
		t.Error("unknown script item accepted")
	}
	if _, _, err := s.Compose([]ScriptItem{{Type: Speech, Speaker: DefaultSpeakers()[0], Words: []string{"zzz"}}}); err == nil {
		t.Error("unknown word accepted in script")
	}
}

func TestSegmentsRoundTrip(t *testing.T) {
	s := NewSynthesizer(6)
	_, segs, err := s.Compose([]ScriptItem{
		{Type: Speech, Speaker: DefaultSpeakers()[2], Words: []string{"biopsy"}},
		{Type: Music, Dur: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Segment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(segs) || back[0].Speaker != segs[0].Speaker ||
		back[0].Words[0].Word != "biopsy" {
		t.Errorf("round trip drift: %+v", back)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	w1, _, _ := NewSynthesizer(7).Utterance(DefaultSpeakers()[0], []string{"normal"})
	w2, _, _ := NewSynthesizer(7).Utterance(DefaultSpeakers()[0], []string{"normal"})
	if len(w1) != len(w2) {
		t.Fatal("lengths differ")
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("waveforms differ at same seed")
		}
	}
	w3, _, _ := NewSynthesizer(8).Utterance(DefaultSpeakers()[0], []string{"normal"})
	same := len(w1) == len(w3)
	if same {
		diff := false
		for i := range w1 {
			if w1[i] != w3[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical audio")
	}
}

func TestSegmentTypeString(t *testing.T) {
	names := []string{Silence.String(), Speech.String(), Music.String(), Artifact.String()}
	joined := strings.Join(names, ",")
	if joined != "silence,speech,music,artifact" {
		t.Errorf("names = %s", joined)
	}
	if !strings.HasPrefix(SegmentType(42).String(), "SegmentType(") {
		t.Error("unknown type name")
	}
}

func TestMusicAndNoiseProperties(t *testing.T) {
	s := NewSynthesizer(9)
	music := s.Music(1.0)
	noise := s.Noise(1.0, 0.1)
	if len(music) != DefaultSampleRate || len(noise) != DefaultSampleRate {
		t.Fatalf("lengths: %d, %d", len(music), len(noise))
	}
	// Noise has much higher ZCR than music.
	zm := dsp.ZeroCrossingRate(music)
	zn := dsp.ZeroCrossingRate(noise)
	if zn <= zm {
		t.Errorf("noise ZCR %v not above music ZCR %v", zn, zm)
	}
}
