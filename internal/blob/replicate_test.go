package blob

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// transfer replicates one object from src into dst via the full digest
// protocol: manifest export, receiver diff, chunk pull, materialize. It
// returns the chunk count and byte volume actually transferred.
func transfer(t *testing.T, src, dst *Store, h Handle) (chunks int, bytes int64) {
	t.Helper()
	manifest, err := src.Manifest(h)
	if err != nil {
		t.Fatalf("Manifest(%s): %v", h, err)
	}
	missing := dst.MissingChunks(manifest)
	data := make(map[Digest][]byte, len(missing))
	for _, cd := range missing {
		chunk, err := src.GetChunk(cd)
		if err != nil {
			t.Fatalf("GetChunk(%x): %v", cd[:8], err)
		}
		data[cd] = chunk
		chunks++
		bytes += int64(len(chunk))
	}
	got, err := dst.PutFromChunks(h.Digest, h.Length, manifest, data)
	if err != nil {
		t.Fatalf("PutFromChunks(%s): %v", h, err)
	}
	if got != (Handle{Digest: h.Digest, Length: h.Length}) {
		t.Fatalf("PutFromChunks handle = %s, want %s", got, h)
	}
	return chunks, bytes
}

func TestManifestAndMissingChunks(t *testing.T) {
	src, _ := openTemp(t)
	dst, _ := openTemp(t)

	payload := bytes.Repeat([]byte("manifest-diff "), 1500) // several 4 KiB chunks
	h, err := src.Put(payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	manifest, err := src.Manifest(h)
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	if want := (len(payload) + int(testOpts.ChunkSize) - 1) / int(testOpts.ChunkSize); len(manifest) != want {
		t.Fatalf("manifest has %d chunks, want %d", len(manifest), want)
	}
	// The sender holds everything; an empty receiver holds nothing.
	if missing := src.MissingChunks(manifest); len(missing) != 0 {
		t.Errorf("source missing %d of its own chunks", len(missing))
	}
	missing := dst.MissingChunks(manifest)
	seen := make(map[Digest]bool)
	for _, cd := range manifest {
		seen[cd] = true
	}
	if len(missing) != len(seen) {
		t.Errorf("empty receiver missing %d chunks, want all %d unique", len(missing), len(seen))
	}
	// Repeats in the input collapse to one transfer entry.
	doubled := append(append([]Digest(nil), manifest...), manifest...)
	if got := dst.MissingChunks(doubled); len(got) != len(seen) {
		t.Errorf("doubled manifest yields %d missing, want %d", len(got), len(seen))
	}

	if _, err := src.Manifest(Handle{}); !errors.Is(err, ErrNoBlob) {
		t.Errorf("Manifest(zero) = %v, want ErrNoBlob", err)
	}
	if _, err := src.Manifest(Handle{Digest: Sum([]byte("absent")), Length: 6}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Manifest(absent) = %v, want ErrNotFound", err)
	}
}

func TestGetChunk(t *testing.T) {
	s, _ := openTemp(t)
	payload := bytes.Repeat([]byte{0x5A}, 10<<10)
	h, err := s.Put(payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	manifest, err := s.Manifest(h)
	if err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	var rebuilt []byte
	for _, cd := range manifest {
		chunk, err := s.GetChunk(cd)
		if err != nil {
			t.Fatalf("GetChunk: %v", err)
		}
		if Sum(chunk) != cd {
			t.Fatalf("chunk digest mismatch")
		}
		rebuilt = append(rebuilt, chunk...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Errorf("chunks do not reassemble the payload")
	}
	if _, err := s.GetChunk(Sum([]byte("no such chunk"))); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetChunk(absent) = %v, want ErrNotFound", err)
	}
}

func TestReplicateToEmptyStore(t *testing.T) {
	src, _ := openTemp(t)
	dst, dir := openTemp(t)

	payload := make([]byte, 20<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	h, err := src.Put(payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	nchunks, nbytes := transfer(t, src, dst, h)
	if nbytes != int64(len(payload)) {
		t.Errorf("first transfer moved %d bytes, want %d", nbytes, len(payload))
	}
	if nchunks == 0 {
		t.Fatalf("first transfer moved no chunks")
	}
	got, err := dst.Get(h)
	if err != nil {
		t.Fatalf("Get after replicate: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("replicated payload differs")
	}

	// Repeat sync: the receiver already holds everything, so the
	// protocol moves zero chunk bytes and only bumps the refcount.
	if nchunks, nbytes = transfer(t, src, dst, h); nchunks != 0 || nbytes != 0 {
		t.Errorf("repeat transfer moved %d chunks / %d bytes, want 0/0", nchunks, nbytes)
	}
	if err := dst.Release(h); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := dst.Get(h); err != nil {
		t.Fatalf("Get after one release: %v", err)
	}
	if err := dst.Release(h); err != nil {
		t.Fatalf("second Release: %v", err)
	}
	if _, err := dst.Get(h); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after final release = %v, want ErrNotFound", err)
	}

	// A replicated store survives reopen like a locally written one.
	if _, err := src.Put(payload); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	transfer(t, src, dst, h)
	dst = reopen(t, dst, dir)
	if got, err := dst.Get(h); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after reopen: %v", err)
	}
}

func TestReplicateSharesChunks(t *testing.T) {
	src, _ := openTemp(t)
	dst, _ := openTemp(t)

	shared := make([]byte, 12<<10)
	rand.New(rand.NewSource(3)).Read(shared)
	a := append(append([]byte(nil), shared...), []byte("tail A")...)
	b := append(append([]byte(nil), shared...), []byte("a different tail B")...)
	ha, err := src.Put(a)
	if err != nil {
		t.Fatalf("Put a: %v", err)
	}
	hb, err := src.Put(b)
	if err != nil {
		t.Fatalf("Put b: %v", err)
	}
	_, bytesA := transfer(t, src, dst, ha)
	chunksB, bytesB := transfer(t, src, dst, hb)
	if bytesA < int64(len(shared)) {
		t.Fatalf("first transfer moved %d bytes, want at least the shared prefix", bytesA)
	}
	// The second object shares every full chunk of the common prefix;
	// only its divergent tail chunk crosses the wire.
	if chunksB != 1 {
		t.Errorf("second transfer moved %d chunks, want 1 (the divergent tail)", chunksB)
	}
	if bytesB >= int64(len(shared)) {
		t.Errorf("second transfer moved %d bytes; shared chunks were re-sent", bytesB)
	}
	for _, tc := range []struct {
		h    Handle
		want []byte
	}{{ha, a}, {hb, b}} {
		got, err := dst.Get(tc.h)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("Get(%s): %v", tc.h, err)
		}
	}
}

func TestPutFromChunksRejectsBadTransfers(t *testing.T) {
	src, _ := openTemp(t)
	dst, _ := openTemp(t)
	payload := bytes.Repeat([]byte("verify me "), 1200)
	h, err := src.Put(payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	manifest, _ := src.Manifest(h)
	data := make(map[Digest][]byte)
	for _, cd := range dst.MissingChunks(manifest) {
		chunk, err := src.GetChunk(cd)
		if err != nil {
			t.Fatalf("GetChunk: %v", err)
		}
		data[cd] = chunk
	}

	// An absent chunk payload fails before anything is written.
	short := make(map[Digest][]byte)
	for cd, chunk := range data {
		short[cd] = chunk
	}
	delete(short, manifest[0])
	if _, err := dst.PutFromChunks(h.Digest, h.Length, manifest, short); err == nil {
		t.Errorf("PutFromChunks accepted a transfer missing a chunk")
	}

	// A chunk whose bytes do not match its digest is rejected.
	bad := make(map[Digest][]byte)
	for cd, chunk := range data {
		bad[cd] = chunk
	}
	flipped := append([]byte(nil), data[manifest[0]]...)
	flipped[0] ^= 0xFF
	bad[manifest[0]] = flipped
	if _, err := dst.PutFromChunks(h.Digest, h.Length, manifest, bad); err == nil {
		t.Errorf("PutFromChunks accepted a corrupt chunk")
	}

	// A manifest whose assembly does not hash to the declared digest is
	// rejected even when every individual chunk checks out.
	if _, err := dst.PutFromChunks(Sum([]byte("lie")), h.Length, manifest, data); err == nil {
		t.Errorf("PutFromChunks accepted a digest mismatch")
	}
	if _, err := dst.PutFromChunks(h.Digest, h.Length+1, manifest, data); err == nil {
		t.Errorf("PutFromChunks accepted a length mismatch")
	}

	// None of the failures may leave orphan state behind: the store
	// still accepts the honest transfer and serves the payload.
	if _, err := dst.PutFromChunks(h.Digest, h.Length, manifest, data); err != nil {
		t.Fatalf("honest PutFromChunks after rejections: %v", err)
	}
	got, err := dst.Get(h)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after honest transfer: %v", err)
	}
	if got := dst.Stats().Chunks; got != int64(len(manifest)) {
		t.Errorf("store holds %d chunks after rejected transfers, want %d", got, len(manifest))
	}
}

func TestPutFromChunksRepeatedChunk(t *testing.T) {
	src, _ := openTemp(t)
	dst, _ := openTemp(t)
	// A payload of identical chunks: the manifest repeats one digest,
	// the transfer carries it once, and materializing it increfs the
	// same chunk per occurrence.
	payload := bytes.Repeat([]byte{0x77}, 3*int(testOpts.ChunkSize))
	h, err := src.Put(payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	nchunks, nbytes := transfer(t, src, dst, h)
	if nchunks != 1 || nbytes != int64(testOpts.ChunkSize) {
		t.Errorf("transfer moved %d chunks / %d bytes, want 1 / %d", nchunks, nbytes, testOpts.ChunkSize)
	}
	got, err := dst.Get(h)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get: %v", err)
	}
	if err := dst.Release(h); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := dst.Get(h); !errors.Is(err, ErrNotFound) {
		t.Errorf("released blob still readable: %v", err)
	}
}

// TestReplicationTransferSetProperty drives random pairs of CAS states
// through the protocol and checks the transfer set is minimal (no chunk
// the receiver already holds is ever pulled) and complete (the receiver
// reconstructs every blob byte-for-byte, verified by digest).
func TestReplicationTransferSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 8; round++ {
		src, _ := openTemp(t)
		dst, _ := openTemp(t)

		// A pool of payloads sharing random runs so cross-object chunk
		// overlap actually occurs; the sender holds all of them.
		runs := make([][]byte, 6)
		for i := range runs {
			runs[i] = make([]byte, int(testOpts.ChunkSize)*(1+rng.Intn(3)))
			rng.Read(runs[i])
		}
		type obj struct {
			h       Handle
			payload []byte
		}
		var pool []obj
		for i := 0; i < 10; i++ {
			var p []byte
			for n := 1 + rng.Intn(4); n > 0; n-- {
				p = append(p, runs[rng.Intn(len(runs))]...)
			}
			p = append(p, byte(i)) // unique tail: distinct objects
			h, err := src.Put(p)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			pool = append(pool, obj{h, p})
		}

		// Receiver starts with a random subset, written locally. Track
		// its chunk population independently of the store under test.
		have := make(map[Digest]bool)
		for _, o := range pool {
			if rng.Intn(2) == 0 {
				continue
			}
			if _, err := dst.Put(o.payload); err != nil {
				t.Fatalf("receiver Put: %v", err)
			}
			m, err := src.Manifest(o.h)
			if err != nil {
				t.Fatalf("Manifest: %v", err)
			}
			for _, cd := range m {
				have[cd] = true
			}
		}

		// Replicate the whole pool and check both properties per object.
		for _, o := range pool {
			manifest, err := src.Manifest(o.h)
			if err != nil {
				t.Fatalf("Manifest: %v", err)
			}
			missing := dst.MissingChunks(manifest)
			dup := make(map[Digest]bool)
			for _, cd := range missing {
				if have[cd] {
					t.Fatalf("round %d: transfer set includes chunk %x the receiver already holds", round, cd[:8])
				}
				if dup[cd] {
					t.Fatalf("round %d: transfer set repeats chunk %x", round, cd[:8])
				}
				dup[cd] = true
			}
			data := make(map[Digest][]byte, len(missing))
			for _, cd := range missing {
				chunk, err := src.GetChunk(cd)
				if err != nil {
					t.Fatalf("GetChunk: %v", err)
				}
				data[cd] = chunk
			}
			if _, err := dst.PutFromChunks(o.h.Digest, o.h.Length, manifest, data); err != nil {
				t.Fatalf("round %d: PutFromChunks: %v", round, err)
			}
			for _, cd := range manifest {
				have[cd] = true
			}
			got, err := dst.Get(o.h)
			if err != nil {
				t.Fatalf("round %d: Get after replicate: %v", round, err)
			}
			if Sum(got) != o.h.Digest || !bytes.Equal(got, o.payload) {
				t.Fatalf("round %d: reconstructed blob does not match its digest", round)
			}
		}
	}
}
