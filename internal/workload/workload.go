// Package workload generates the synthetic material every experiment and
// example runs on: medical-record documents in the paper's motivating
// domain (CT and X-ray phantoms, radiologist voice commentary, test
// results, notes), fully populated database instances, and scripted
// viewer-choice sessions standing in for the physicians clicking the GUI.
package workload

import (
	"fmt"
	"math/rand"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/media/audio"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
)

// MedicalRecord builds the paper's running example document: an imaging
// group with a CT and a correlated X-ray, a voice commentary, lab results
// and a notes component, wired with the author preferences §4 describes
// (X-ray hides or shrinks when the CT is shown; commentary follows the
// CT; everything shown by default). Object ids are zero; Populate fills
// them from a real store.
func MedicalRecord(id string, seed int64) (*document.Document, error) {
	rng := rand.New(rand.NewSource(seed))
	root := &document.Component{
		Name:  "record",
		Label: fmt.Sprintf("Medical record %s", id),
		Children: []*document.Component{
			{
				Name:  "imaging",
				Label: "Imaging studies",
				Children: []*document.Component{
					{
						Name:  "ct",
						Label: "Abdominal CT",
						Presentations: []document.Presentation{
							{Name: "full", Kind: document.KindImage, Bytes: 256 << 10},
							{Name: "segmented", Kind: document.KindSegmentedImage, Bytes: 300 << 10},
							{Name: "lowres", Kind: document.KindImageLowRes, Bytes: 24 << 10},
							{Name: "hidden", Kind: document.KindHidden},
						},
					},
					{
						Name:  "xray",
						Label: "Chest X-ray",
						Presentations: []document.Presentation{
							{Name: "full", Kind: document.KindImage, Bytes: 128 << 10},
							{Name: "icon", Kind: document.KindIcon, Bytes: 4 << 10},
							{Name: "hidden", Kind: document.KindHidden},
						},
					},
				},
			},
			{
				Name:  "voice",
				Label: "Radiologist commentary",
				Presentations: []document.Presentation{
					{Name: "audio", Kind: document.KindAudio, Bytes: 200 << 10},
					{Name: "transcript", Kind: document.KindAudioTranscript, Inline: []byte("see imaging: no acute findings"), Bytes: 80},
					{Name: "hidden", Kind: document.KindHidden},
				},
			},
			{
				Name:  "labs",
				Label: "Test results",
				Presentations: []document.Presentation{
					{Name: "table", Kind: document.KindTable, Inline: []byte(labTable(rng)), Bytes: 160},
					{Name: "hidden", Kind: document.KindHidden},
				},
			},
			{
				Name:  "notes",
				Label: "Attending notes",
				Presentations: []document.Presentation{
					{Name: "text", Kind: document.KindText, Inline: []byte("stable, follow-up in 6 weeks"), Bytes: 48},
					{Name: "hidden", Kind: document.KindHidden},
				},
			},
		},
	}
	d, err := document.New(id, "Patient file "+id, root)
	if err != nil {
		return nil, err
	}
	n := d.Prefs
	steps := []error{
		n.SetUnconditional("record", []string{document.VisShown, document.VisHidden}),
		n.SetUnconditional("imaging", []string{document.VisShown, document.VisHidden}),
		n.SetUnconditional("ct", []string{"full", "segmented", "lowres", "hidden"}),
		n.SetParents("xray", []string{"ct"}),
		n.SetPreference("xray", cpnet.Outcome{"ct": "full"}, []string{"icon", "hidden", "full"}),
		n.SetPreference("xray", cpnet.Outcome{"ct": "segmented"}, []string{"hidden", "icon", "full"}),
		n.SetPreference("xray", cpnet.Outcome{"ct": "lowres"}, []string{"icon", "full", "hidden"}),
		n.SetPreference("xray", cpnet.Outcome{"ct": "hidden"}, []string{"full", "icon", "hidden"}),
		n.SetParents("voice", []string{"ct"}),
		n.SetPreference("voice", cpnet.Outcome{"ct": "full"}, []string{"audio", "transcript", "hidden"}),
		n.SetPreference("voice", cpnet.Outcome{"ct": "segmented"}, []string{"audio", "transcript", "hidden"}),
		n.SetPreference("voice", cpnet.Outcome{"ct": "lowres"}, []string{"transcript", "audio", "hidden"}),
		n.SetPreference("voice", cpnet.Outcome{"ct": "hidden"}, []string{"transcript", "audio", "hidden"}),
		n.SetUnconditional("labs", []string{"table", "hidden"}),
		n.SetUnconditional("notes", []string{"text", "hidden"}),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func labTable(rng *rand.Rand) string {
	return fmt.Sprintf("WBC %.1f\nHGB %.1f\nPLT %d\nCRP %.1f",
		4+6*rng.Float64(), 11+4*rng.Float64(), 150+rng.Intn(250), 10*rng.Float64())
}

// WideRecord builds a synthetic record with n independent image
// components under one group — used to scale the reconfiguration and
// prefetch experiments with document size.
func WideRecord(id string, n int, seed int64) (*document.Document, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: need at least 1 component")
	}
	children := make([]*document.Component, n)
	for i := range children {
		children[i] = &document.Component{
			Name:  fmt.Sprintf("img%03d", i),
			Label: fmt.Sprintf("Study %d", i),
			Presentations: []document.Presentation{
				{Name: "full", Kind: document.KindImage, Bytes: int64(64+i) << 10},
				{Name: "icon", Kind: document.KindIcon, Bytes: 4 << 10},
				{Name: "hidden", Kind: document.KindHidden},
			},
		}
	}
	root := &document.Component{Name: "record", Label: "Wide record", Children: children}
	d, err := document.New(id, "Wide record "+id, root)
	if err != nil {
		return nil, err
	}
	n2 := d.Prefs
	if err := n2.SetUnconditional("record", []string{document.VisShown, document.VisHidden}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Chain dependencies: each image (after the first) conditions on its
	// predecessor, giving the CP-net real structure.
	for i, c := range children {
		if i == 0 {
			if err := n2.SetUnconditional(c.Name, []string{"full", "icon", "hidden"}); err != nil {
				return nil, err
			}
			continue
		}
		prev := children[i-1].Name
		if err := n2.SetParents(c.Name, []string{prev}); err != nil {
			return nil, err
		}
		for _, pv := range []string{"full", "icon", "hidden"} {
			order := []string{"icon", "hidden", "full"}
			if pv == "hidden" || rng.Intn(3) == 0 {
				order = []string{"full", "icon", "hidden"}
			}
			if err := n2.SetPreference(c.Name, cpnet.Outcome{prev: pv}, order); err != nil {
				return nil, err
			}
		}
	}
	if err := n2.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// randomForms is the pool RandomRecord draws a leaf's presentations
// from: every media kind a table stores, a text form and a hidden one.
var randomForms = []document.Presentation{
	{Name: "full", Kind: document.KindImage},
	{Name: "segmented", Kind: document.KindSegmentedImage},
	{Name: "icon", Kind: document.KindIcon},
	{Name: "lowres", Kind: document.KindImageLowRes},
	{Name: "audio", Kind: document.KindAudio},
	{Name: "text", Kind: document.KindText},
	{Name: document.HiddenValue, Kind: document.KindHidden},
}

// RandomRecord builds a seeded random document of n components for
// property tests: a random tree (a component is composite when it has
// children), leaves with two to four presentations whose object ids are
// drawn from a small range so components share objects, and a random
// CP-net in which each variable conditions on up to two earlier ones
// with a random order in every row.
func RandomRecord(id string, n int, seed int64) (*document.Document, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: need at least 2 components")
	}
	rng := rand.New(rand.NewSource(seed))
	comps := []*document.Component{{Name: "c0"}}
	for i := 1; i < n; i++ {
		c := &document.Component{Name: fmt.Sprintf("c%d", i)}
		parent := comps[rng.Intn(len(comps))]
		parent.Children = append(parent.Children, c)
		comps = append(comps, c)
	}
	for _, c := range comps {
		if c.Composite() {
			continue
		}
		for _, k := range rng.Perm(len(randomForms))[:2+rng.Intn(3)] {
			p := randomForms[k]
			if p.Kind != document.KindHidden && rng.Intn(4) > 0 {
				p.ObjectID = uint64(1 + rng.Intn(6))
				p.Bytes = int64(1+rng.Intn(64)) << 10
			}
			c.Presentations = append(c.Presentations, p)
		}
	}
	d, err := document.New(id, "Random record "+id, comps[0])
	if err != nil {
		return nil, err
	}
	vars := d.Prefs.Variables()
	for i, v := range vars {
		var parents []string
		for _, j := range rng.Perm(i) {
			if len(parents) < 2 && rng.Intn(3) == 0 {
				parents = append(parents, vars[j].Name)
			}
		}
		if err := d.Prefs.SetParents(v.Name, parents); err != nil {
			return nil, err
		}
		var rowErr error
		err := d.Prefs.ForEachContext(v.Name, func(ctx cpnet.Outcome) bool {
			order := make([]string, 0, len(v.Domain))
			for _, k := range rng.Perm(len(v.Domain)) {
				order = append(order, v.Domain[k])
			}
			rowErr = d.Prefs.SetPreference(v.Name, ctx, order)
			return rowErr == nil
		})
		if err != nil {
			return nil, err
		}
		if rowErr != nil {
			return nil, rowErr
		}
	}
	if err := d.Prefs.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// PopulatedRecord is the output of Populate: a stored document whose
// presentations reference real multimedia objects.
type PopulatedRecord struct {
	Doc *document.Document
	// CTID/XrayID are IMAGE_OBJECTS_TABLE ids; CmpID is the multi-layer
	// stream in CMP_OBJECTS_TABLE; VoiceID is in AUDIO_OBJECTS_TABLE.
	CTID, XrayID, CmpID, VoiceID uint64
	// Truth is the ground-truth segmentation of the voice object.
	Truth []audio.Segment
}

// Populate stores a full medical record in the database: CT and X-ray
// phantoms, the CT's multi-layer compressed stream, a synthesized
// multi-speaker commentary with ground truth, and the document itself.
func Populate(m *mediadb.MediaDB, id string, seed int64) (*PopulatedRecord, error) {
	doc, err := MedicalRecord(id, seed)
	if err != nil {
		return nil, err
	}
	ct, err := image.Phantom(256, 256, seed)
	if err != nil {
		return nil, err
	}
	xray, err := image.Phantom(192, 192, seed+1)
	if err != nil {
		return nil, err
	}
	ctID, err := m.PutImage(100, "", 0.05, ct.Encode())
	if err != nil {
		return nil, err
	}
	xrayID, err := m.PutImage(100, "", 0.08, xray.Encode())
	if err != nil {
		return nil, err
	}
	stream, err := compress.Encode(ct, compress.Options{})
	if err != nil {
		return nil, err
	}
	header, body, err := stream.Marshal()
	if err != nil {
		return nil, err
	}
	cmpID, err := m.PutCmp(fmt.Sprintf("%s-ct.mml", id), header, body)
	if err != nil {
		return nil, err
	}
	synth := audio.NewSynthesizer(seed)
	speakers := audio.DefaultSpeakers()
	wave, truth, err := synth.Compose([]audio.ScriptItem{
		{Type: audio.Silence, Dur: 0.3},
		{Type: audio.Speech, Speaker: speakers[0], Words: []string{"patient", "normal"}},
		{Type: audio.Speech, Speaker: speakers[1], Words: []string{"tumor", "negative"}},
		{Type: audio.Silence, Dur: 0.2},
	})
	if err != nil {
		return nil, err
	}
	sectors, err := audio.MarshalSegments(truth)
	if err != nil {
		return nil, err
	}
	voiceID, err := m.PutAudio(fmt.Sprintf("%s-voice.pcm", id), sectors, encodeWave(wave))
	if err != nil {
		return nil, err
	}
	// Wire object ids into the document's presentations.
	assign := map[string]map[string]uint64{
		"ct":    {"full": ctID, "segmented": ctID, "lowres": cmpID},
		"xray":  {"full": xrayID, "icon": xrayID},
		"voice": {"audio": voiceID},
	}
	for comp, values := range assign {
		c, err := doc.Component(comp)
		if err != nil {
			return nil, err
		}
		for i := range c.Presentations {
			if oid, ok := values[c.Presentations[i].Name]; ok {
				c.Presentations[i].ObjectID = oid
			}
		}
	}
	if err := m.PutDocument(doc); err != nil {
		return nil, err
	}
	return &PopulatedRecord{
		Doc: doc, CTID: ctID, XrayID: xrayID, CmpID: cmpID, VoiceID: voiceID, Truth: truth,
	}, nil
}

// encodeWave packs samples as little-endian int16 PCM.
func encodeWave(samples []float64) []byte {
	out := make([]byte, 2*len(samples))
	for i, s := range samples {
		if s > 1 {
			s = 1
		} else if s < -1 {
			s = -1
		}
		v := int16(s * 32767)
		out[2*i] = byte(v)
		out[2*i+1] = byte(v >> 8)
	}
	return out
}

// Choice is one scripted viewer action.
type Choice struct {
	Viewer   string
	Variable string
	Value    string
}

// Session scripts n plausible viewer choices over the document: each step
// picks a random variable and a random value from its domain, weighted
// toward non-hidden presentations (physicians mostly ask to see things).
func Session(doc *document.Document, viewers []string, n int, seed int64) []Choice {
	rng := rand.New(rand.NewSource(seed))
	vars := doc.Prefs.Variables()
	choices := make([]Choice, 0, n)
	for len(choices) < n {
		v := vars[rng.Intn(len(vars))]
		val := v.Domain[rng.Intn(len(v.Domain))]
		if (val == "hidden" || val == document.VisHidden) && rng.Intn(3) != 0 {
			continue // hide only a third of the time it comes up
		}
		choices = append(choices, Choice{
			Viewer:   viewers[rng.Intn(len(viewers))],
			Variable: v.Name,
			Value:    val,
		})
	}
	return choices
}
