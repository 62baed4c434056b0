package compress

func newBlockDCT(w, h, block int) *blockDCT { return new(blockDCT).fit(w, h, block) }
