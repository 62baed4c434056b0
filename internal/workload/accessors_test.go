package workload

// DecodeWave unpacks int16 PCM back to samples.
func DecodeWave(data []byte) []float64 {
	out := make([]float64, len(data)/2)
	for i := range out {
		v := int16(uint16(data[2*i]) | uint16(data[2*i+1])<<8)
		out[i] = float64(v) / 32767
	}
	return out
}
