package prefetch

import "testing"

// The byte bound, LRU order, Offer's no-evict rule and concurrent
// safety are bytecache's (and tested there); what Cache adds on top is
// the digest tag a pushed payload carries.
func TestCacheDigestTag(t *testing.T) {
	c, err := NewCache(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Digest(1); ok {
		t.Fatal("digest present before any Put")
	}
	c.PutDigest(1, "sha256:aa", []byte("pushed"))
	if d, ok := c.Digest(1); !ok || d != "sha256:aa" {
		t.Fatalf("digest = %q ok=%v, want sha256:aa", d, ok)
	}
	// A plain demand Put of the same id clears the tag: the bytes came
	// from a direct fetch, not a digest-verified push.
	c.Put(1, []byte("fetched"))
	if _, ok := c.Digest(1); ok {
		t.Fatal("digest tag survived an untagged overwrite")
	}
	if got, ok := c.Get(1); !ok || string(got) != "fetched" {
		t.Fatalf("payload = %q ok=%v", got, ok)
	}
	// A refused Offer keeps the resident payload and its tag; an evicted
	// payload takes its tag with it.
	c.PutDigest(2, "sha256:bb", make([]byte, 1000))
	if c.Offer(2, "sha256:cc", make([]byte, 1100)) {
		t.Fatal("Offer beyond the free space accepted")
	}
	if d, _ := c.Digest(2); d != "sha256:bb" {
		t.Fatalf("digest after a refused Offer = %q, want sha256:bb", d)
	}
	c.Put(3, make([]byte, 1000)) // evicts 2
	if _, ok := c.Digest(2); ok {
		t.Fatal("digest tag outlived its evicted payload")
	}
}
