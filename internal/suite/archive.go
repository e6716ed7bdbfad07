package suite

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The suite archive is a plain tar stream holding manifest.json,
// checksums.json, and instances/* in deterministic order with zeroed
// metadata, so the same stored suite always archives to the same bytes.
// The COMPLETE marker is deliberately absent: it is the store's commit
// point, not part of the suite.

// WriteArchive streams the completed local suite as a tar archive. It
// never generates.
func (s *Store) WriteArchive(hash string, w io.Writer) error {
	st, err := s.Lookup(hash)
	if err != nil {
		return err
	}
	return s.WriteSuiteArchive(st, w)
}

// WriteSuiteArchive is WriteArchive for a suite this store already
// resolved (by Lookup or EnsureCtx), so it skips the lookup's manifest
// re-hash. The instance files archived are those the suite's checksum
// index lists, so a missing one is an error rather than a shorter
// archive. They are read through ReadInstanceFile and so counted in
// Stats.FileReads.
func (s *Store) WriteSuiteArchive(st *Suite, w io.Writer) error {
	manifest, err := os.ReadFile(filepath.Join(st.Dir, "manifest.json"))
	if err != nil {
		return err
	}
	sums, err := os.ReadFile(filepath.Join(st.Dir, "checksums.json"))
	if err != nil {
		return err
	}
	var index map[string]string
	if err := json.Unmarshal(sums, &index); err != nil {
		return fmt.Errorf("suite: %s checksums: %w", st.Hash, err)
	}
	insts := make([]string, 0, len(index))
	for name := range index {
		insts = append(insts, name)
	}
	sort.Strings(insts)
	tw := tar.NewWriter(w)
	add := func(name string, b []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name,
			Mode: 0o644,
			Size: int64(len(b)),
		}); err != nil {
			return err
		}
		_, err := tw.Write(b)
		return err
	}
	if err := add("manifest.json", manifest); err != nil {
		return err
	}
	if err := add("checksums.json", sums); err != nil {
		return err
	}
	for _, name := range insts {
		b, err := s.ReadInstanceFile(st.Hash, name)
		if err != nil {
			return err
		}
		if err := add("instances/"+name, b); err != nil {
			return err
		}
	}
	return tw.Close()
}
