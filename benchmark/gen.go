package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"mmconf/internal/document"
	"mmconf/internal/workload"
)

// Everything the system under test sees is generated here from the run
// seed: object contents, choice scripts and the per-driver operation
// streams. The program never sees the seed itself.

// subSeed derives an independent stream seed from the run seed, a
// stream label and an index, so adding a stream never shifts another.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 1)
}

// noiseRaster is a w×h raster in image.Gray's encoding with seeded noise
// pixels: pairwise distinct, so the content-addressed store cannot
// deduplicate, and incompressible.
func noiseRaster(rng *rand.Rand, w, h int) []byte {
	buf := make([]byte, 12+w*h)
	binary.LittleEndian.PutUint32(buf[0:4], 0x47524159) // image.Gray's "GRAY" magic
	binary.LittleEndian.PutUint32(buf[4:8], uint32(w))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(h))
	rng.Read(buf[12:])
	return buf
}

func noiseBytes(rng *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	rng.Read(buf)
	return buf
}

// fetchOp is one generated media operation.
type fetchOp struct {
	Write  bool
	Obj    int // index into the workload's object list
	Layers int // GetCmp prefix length; 0 for non-stream objects
}

// fetchGen is one driver's operation stream.
//
// A workload with writes draws independently: a fixed write share on the
// objects the driver owns, otherwise a uniform choice among the objects
// it reads (independent draws are what give a cache smaller than the
// working set its ~cache/working-set hit ratio). A read-only workload
// walks seeded shuffles of every (object, layer count) combination, so
// any stretch of the stream holds the same mix of cheap and expensive
// operations and per-op averages do not drift with the draw.
type fetchGen struct {
	rng        *rand.Rand
	readable   []int   // objects this driver may fetch
	own        []int   // objects this driver may write (disjoint between drivers)
	writeShare float64 // 0 for read-only workloads
	maxLayers  int     // 0 when the workload fetches whole objects

	cycle []fetchOp // read-only workloads: the current shuffle
	pos   int
}

func newFetchGen(seed int64, driver int, readable, own []int, writeShare float64, maxLayers int) *fetchGen {
	g := &fetchGen{
		rng:      rand.New(rand.NewSource(subSeed(seed, "ops", driver))),
		readable: readable, own: own, writeShare: writeShare, maxLayers: maxLayers,
	}
	if writeShare == 0 {
		for _, obj := range readable {
			if maxLayers == 0 {
				g.cycle = append(g.cycle, fetchOp{Obj: obj})
			}
			for l := 1; l <= maxLayers; l++ {
				g.cycle = append(g.cycle, fetchOp{Obj: obj, Layers: l})
			}
		}
		g.pos = len(g.cycle) // shuffle before the first op
	}
	return g
}

func (g *fetchGen) next() fetchOp {
	if g.cycle != nil {
		if g.pos == len(g.cycle) {
			g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
			g.pos = 0
		}
		g.pos++
		return g.cycle[g.pos-1]
	}
	if g.rng.Float64() < g.writeShare {
		return fetchOp{Write: true, Obj: g.own[g.rng.Intn(len(g.own))]}
	}
	return fetchOp{Obj: g.readable[g.rng.Intn(len(g.readable))]}
}

// choiceScriptLen is long enough that a driver cycles its script only a
// few dozen times in a run, short enough to generate in microseconds.
const choiceScriptLen = 4096

// choiceScript is one driver's scripted clicks over the record, from
// workload.Session (random variable, random value, hides a third as
// likely as shows).
func choiceScript(doc *document.Document, user string, seed int64, driver int) []workload.Choice {
	return workload.Session(doc, []string{user}, choiceScriptLen, subSeed(seed, "script", driver))
}
