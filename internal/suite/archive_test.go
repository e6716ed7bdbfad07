package suite

import (
	"bytes"
	"context"
	"testing"
)

// TestArchiveIsDeterministic: the same stored suite archives to the same
// bytes every time — the property that makes the wire format cacheable
// and diffable.
func TestArchiveIsDeterministic(t *testing.T) {
	s := openStore(t)
	m := tinyManifest()
	if _, err := s.EnsureCtx(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := s.WriteArchive(m.Hash(), &a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteArchive(m.Hash(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two archives of the same suite differ")
	}
	if a.Len() == 0 {
		t.Fatal("empty archive")
	}
}
