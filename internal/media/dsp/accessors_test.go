package dsp

// FrameIndex returns the frame whose span contains the given second.
func (e *Extractor) FrameIndex(sec float64) int {
	i := int((sec*e.SampleRate - float64(e.FrameLen)/2) / float64(e.Hop))
	if i < 0 {
		return 0
	}
	return i
}
