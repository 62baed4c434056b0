package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// segFiles maps segment file names to their bytes: what a store's
// directory holds at one instant.
type segFiles map[string][]byte

func readSegFiles(t testing.TB, dir string) segFiles {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	fs := segFiles{}
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		fs[filepath.Base(n)] = b
	}
	return fs
}

// writeSegFiles writes fs into a fresh directory and returns it.
func writeSegFiles(t testing.TB, fs segFiles) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "crashed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range fs {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// blockWrite is one write an operation makes in a segment: a block's
// header and payload, or a free stamp. A tear keeps the write's first
// keep bytes, keep drawn from [minKeep, maxKeep); a write after the tear
// never happened, which undoes its n bytes.
type blockWrite struct {
	seg              int
	off, n           int64
	minKeep, maxKeep int64
	// undoable: the bytes before the operation are the bytes before this
	// write. False for a block placed in a hole an earlier write of the
	// same operation split off, whose free stamp that earlier write made.
	undoable bool
}

// restore undoes the bytes [from, to) of a file image: they take pre's
// values (zero past pre's end), and a tail only the write grew the file
// by is cut again.
func restore(img, pre []byte, from, to int64) []byte {
	to = min(to, int64(len(img)))
	for i := from; i < to; i++ {
		if i < int64(len(pre)) {
			img[i] = pre[i]
		} else {
			img[i] = 0
		}
	}
	if from < to && to == int64(len(img)) {
		img = img[:max(from, min(to, int64(len(pre))))]
	}
	return img
}

// crashImage is the directory a crash leaves when it strikes while an
// operation's writes go down in order: writes[:k] whole, writes[k] torn
// after keep bytes, the rest never made. pre and post are the synced
// states before and after the whole operation.
func crashImage(pre, post segFiles, writes []blockWrite, k int, keep int64) segFiles {
	img := segFiles{}
	for name, b := range post {
		img[name] = bytes.Clone(b)
	}
	for j := len(writes) - 1; j > k; j-- {
		w := writes[j]
		name := segName(w.seg)
		img[name] = restore(img[name], pre[name], w.off, w.off+w.n)
	}
	w := writes[k]
	name := segName(w.seg)
	img[name] = restore(img[name], pre[name], w.off+keep, w.off+w.n)
	for name, b := range img {
		if _, had := pre[name]; !had && len(b) == 0 {
			delete(img, name) // created for a write that never happened
		}
	}
	return img
}

// preOp is what a torn operation is measured against: the synced files
// and the index just before it.
type preOp struct {
	files     segFiles
	free      map[[2]int64]bool // segment, offset of each free block
	size      map[int]int64
	chunks    map[Digest]bool
	manifests map[Digest]bool
}

func capturePre(t testing.TB, s *Store, dir string) preOp {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := preOp{
		files:     readSegFiles(t, dir),
		free:      map[[2]int64]bool{},
		size:      map[int]int64{},
		chunks:    map[Digest]bool{},
		manifests: map[Digest]bool{},
	}
	for _, list := range s.free {
		for _, l := range list {
			p.free[[2]int64{int64(l.seg), l.off}] = true
		}
	}
	for id, sg := range s.segs {
		p.size[id] = sg.size
	}
	for d := range s.chunks {
		p.chunks[d] = true
	}
	for d := range s.manifests {
		p.manifests[d] = true
	}
	return p
}

// putWrites lists the block writes the put of object d made, in the
// order commitLocked makes them: each new chunk, then the manifest.
func putWrites(s *Store, p preOp, d Digest) []blockWrite {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ws []blockWrite
	add := func(l loc, dataLen uint32) {
		ws = append(ws, blockWrite{
			seg: l.seg, off: l.off, n: l.blockLen,
			minKeep: hdrSize, maxKeep: hdrSize + int64(dataLen),
			undoable: p.free[[2]int64{int64(l.seg), l.off}] || l.off >= p.size[l.seg],
		})
	}
	me := s.manifests[d]
	seen := map[Digest]bool{}
	for _, cd := range me.chunks {
		if !p.chunks[cd] && !seen[cd] {
			seen[cd] = true
			add(s.chunks[cd].loc, s.chunks[cd].dataLen)
		}
	}
	add(me.loc, me.dataLen)
	return ws
}

// releaseWrites lists the free stamps a release of object d is about to
// make, in the order dropManifestLocked makes them; none while another
// reference holds it.
func releaseWrites(s *Store, d Digest) []blockWrite {
	s.mu.Lock()
	defer s.mu.Unlock()
	me := s.manifests[d]
	if me.refs > 1 {
		return nil
	}
	stamp := func(l loc) blockWrite {
		return blockWrite{seg: l.seg, off: l.off, n: 12, minKeep: 0, maxKeep: 12, undoable: true}
	}
	ws := []blockWrite{stamp(me.loc)}
	refs := map[Digest]int64{}
	for _, cd := range me.chunks {
		if _, ok := refs[cd]; !ok {
			refs[cd] = s.chunks[cd].refs
		}
		if refs[cd]--; refs[cd] == 0 {
			ws = append(ws, stamp(s.chunks[cd].loc))
		}
	}
	return ws
}

// tornWalk runs a seeded walk of puts, releases and syncs, with hole
// reuse, then tears one operation that writes: a put torn inside one of
// its block writes (header plus a seeded prefix of the payload), or a
// release torn inside one of its free stamps. It reopens the crashed
// directory and checks that every object the walk held before the torn
// operation reads back byte-equal, that every object it had released
// stays gone, and that a second Open reports the same Stats.
func tornWalk(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s, dir := openTemp(t)
	content := map[Digest][]byte{}
	var order []Digest // content in first-put order: a seeded pick needs one
	refs := map[Digest]int{}
	var held []Handle // one entry per reference the walk holds

	payload := func() []byte {
		if len(order) > 0 && rng.Intn(6) == 0 {
			// An earlier payload: a dedup hit, or a put of released content.
			return content[order[rng.Intn(len(order))]]
		}
		var n int
		switch rng.Intn(3) {
		case 0:
			n = rng.Intn(200)
		case 1:
			n = 200 + rng.Intn(4000)
		default:
			n = 4000 + rng.Intn(12000)
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	steps := 10 + rng.Intn(60)
	for step := 0; ; step++ {
		tear := step >= steps
		var pre preOp
		if tear {
			pre = capturePre(t, s, dir)
		}
		var target Digest
		var ws []blockWrite
		switch r := rng.Intn(20); {
		case r < 2:
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			continue
		case r < 9 && len(held) > 0:
			i := rng.Intn(len(held))
			h := held[i]
			if tear {
				ws = releaseWrites(s, h.Digest)
			}
			if err := s.Release(h); err != nil {
				t.Fatalf("seed %d step %d: Release: %v", seed, step, err)
			}
			held = slices.Delete(held, i, i+1)
			refs[h.Digest]--
			target = h.Digest
		default:
			data := payload()
			h, err := s.Put(data)
			if err != nil {
				t.Fatalf("seed %d step %d: Put: %v", seed, step, err)
			}
			if _, ok := content[h.Digest]; !ok {
				content[h.Digest] = data
				order = append(order, h.Digest)
			}
			refs[h.Digest]++
			held = append(held, h)
			if tear && !pre.manifests[h.Digest] {
				ws = putWrites(s, pre, h.Digest)
			}
			target = h.Digest
		}
		if len(ws) == 0 {
			continue
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		post := readSegFiles(t, dir)
		k := rng.Intn(len(ws))
		for _, w := range ws[k+1:] {
			if !w.undoable {
				k = len(ws) - 1
				break
			}
		}
		keep := ws[k].minKeep + rng.Int63n(ws[k].maxKeep-ws[k].minKeep)
		where := fmt.Sprintf("seed %d step %d, write %d of %d torn after %d bytes", seed, step, k, len(ws), keep)
		checkCrash(t, where, writeSegFiles(t, crashImage(pre.files, post, ws, k, keep)),
			target, order, content, refs)
		return
	}
}

// checkCrash reopens a crashed directory and holds it to the walk's
// model. target is the object of the torn operation, which may or may
// not have survived; refs counts the references the walk holds.
func checkCrash(t *testing.T, where, crashed string, target Digest, order []Digest, content map[Digest][]byte, refs map[Digest]int) {
	t.Helper()
	s2, err := Open(crashed, testOpts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", where, err)
	}
	st := s2.Stats()
	for _, d := range order {
		if d == target {
			continue
		}
		h := Handle{Digest: d, Length: uint32(len(content[d]))}
		got, err := s2.Get(h)
		switch {
		case refs[d] > 0 && (err != nil || !bytes.Equal(got, content[d])):
			t.Errorf("%s: held object %v after the crash: %d bytes, %v", where, h, len(got), err)
		case refs[d] == 0 && !errors.Is(err, ErrNotFound):
			t.Errorf("%s: released object %v after the crash: %v, want ErrNotFound", where, h, err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("%s: close: %v", where, err)
	}
	s3, err := Open(crashed, testOpts)
	if err != nil {
		t.Fatalf("%s: second reopen: %v", where, err)
	}
	defer s3.Close()
	if st3 := s3.Stats(); st3 != st {
		t.Errorf("%s: a second Open changed the Stats:\n first  %+v\n second %+v", where, st, st3)
	}
	// The store goes on: the torn operation's payload puts and reads
	// back clean, whatever is left of its torn blocks.
	h, err := s3.Put(content[target])
	if err != nil {
		t.Fatalf("%s: put after recovery: %v", where, err)
	}
	if got, err := s3.Get(h); err != nil || !bytes.Equal(got, content[target]) {
		t.Errorf("%s: %v put again after recovery: %d bytes, %v", where, h, len(got), err)
	}
}

// TestTornWriteWalk runs the torn-write walk at a bounded count of
// seeds; FuzzTornWrite runs any seed.
func TestTornWriteWalk(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { tornWalk(t, seed) })
	}
}

func FuzzTornWrite(f *testing.F) {
	for seed := int64(65); seed <= 68; seed++ {
		f.Add(seed)
	}
	f.Fuzz(tornWalk)
}

// TestTornPutInReusedHoleKeepsLaterBlocks puts x, y and z, releases x
// and tears a put into x's hole after its header and half its payload.
// The reopened store keeps y and z, which lie behind the torn block, and
// the torn block is no dedup target: the same payload put again gets a
// fresh block and reads back clean, across a further reopen too.
func TestTornPutInReusedHoleKeepsLaterBlocks(t *testing.T) {
	s, dir := openTemp(t)
	mk := func(seed int64) []byte {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	var hs []Handle
	for i := int64(1); i <= 3; i++ {
		h, err := s.Put(mk(i))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	x, y, z := hs[0], hs[1], hs[2]
	if err := s.Release(x); err != nil {
		t.Fatal(err)
	}
	pre := capturePre(t, s, dir)
	w, err := s.Put(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	ws := putWrites(s, pre, w.Digest)
	if len(ws) != 2 || !pre.free[[2]int64{int64(ws[0].seg), ws[0].off}] {
		t.Fatalf("put of w wrote %+v, want its chunk in x's freed hole; test premise broken", ws)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	tornOff := ws[0].off
	img := crashImage(pre.files, readSegFiles(t, dir), ws, 0, hdrSize+3000/2)
	crashed := writeSegFiles(t, img)

	s2, err := Open(crashed, testOpts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i, h := range []Handle{y, z} {
		if got, err := s2.Get(h); err != nil || !bytes.Equal(got, mk(int64(i+2))) {
			t.Errorf("durable object %v behind the torn block: %d bytes, %v", h, len(got), err)
		}
	}
	for _, h := range []Handle{x, w} {
		if _, err := s2.Get(h); !errors.Is(err, ErrNotFound) {
			t.Errorf("%v after the torn put: %v, want ErrNotFound", h, err)
		}
	}
	w2, err := s2.Put(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	ce := s2.chunks[Sum(mk(4))]
	s2.mu.Unlock()
	if ce == nil || ce.off == tornOff {
		t.Fatalf("w's chunk put again at %+v: the torn block at %d was a dedup target", ce, tornOff)
	}
	if got, err := s2.Get(w2); err != nil || !bytes.Equal(got, mk(4)) {
		t.Errorf("w put again: %d bytes, %v", len(got), err)
	}
	s3 := reopen(t, s2, crashed)
	for i, h := range []Handle{y, z, w2} {
		want := mk(int64(i + 2))
		if h == w2 {
			want = mk(4)
		}
		if got, err := s3.Get(h); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v after a further reopen: %d bytes, %v", h, len(got), err)
		}
	}
}

// TestGarbledHeaderLosesNoLaterBlock garbles the header of a block in
// the middle of a segment. Its object is lost; every block after it is
// found again by stepping in minBlock units, and every other object
// reads back.
func TestGarbledHeaderLosesNoLaterBlock(t *testing.T) {
	s, dir := openTemp(t)
	var hs []Handle
	var data [][]byte
	for i := 0; i < 6; i++ {
		b := make([]byte, 500+1700*i)
		rand.New(rand.NewSource(int64(i))).Read(b)
		h, err := s.Put(b)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		data = append(data, b)
	}
	s.mu.Lock()
	ce := s.chunks[s.manifests[hs[2].Digest].chunks[0]]
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(ce.seg)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var junk [16]byte
	binary.LittleEndian.PutUint32(junk[0:4], 0xBADC0FFE)
	binary.LittleEndian.PutUint32(junk[8:12], 100) // no power of two
	if _, err := f.WriteAt(junk[:], ce.off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, testOpts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for i, h := range hs {
		got, err := s2.Get(h)
		if i == 2 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("object with the garbled chunk: %v, want ErrNotFound", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Errorf("object %d after a garbled header before it: %d bytes, %v", i, len(got), err)
		}
	}
}
