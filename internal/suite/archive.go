package suite

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The suite archive is the wire format of the peer-replica Blob tier: a
// plain tar stream holding manifest.json, checksums.json, and
// instances/* in deterministic order with zeroed metadata, so the same
// stored suite always archives to the same bytes. The COMPLETE marker is
// deliberately absent — a fetcher writes its own only after verifying the
// manifest hash and every checksum.

// maxArchiveFileBytes bounds any single file extracted from an archive,
// and maxArchiveTotalBytes the whole extraction, so a misbehaving peer
// cannot disk-bomb a replica. Real instance files are kilobytes.
const (
	maxArchiveFileBytes  = 64 << 20
	maxArchiveTotalBytes = 1 << 30
)

// WriteArchive streams the completed local suite as a tar archive. It
// never consults remote tiers (the server's archive endpoint serves
// local bytes only, which is what keeps mutually peered replicas from
// recursing into each other).
func (s *Store) WriteArchive(hash string, w io.Writer) error {
	st, err := s.LookupLocal(hash)
	if err != nil {
		return err
	}
	return s.WriteSuiteArchive(st, w)
}

// WriteSuiteArchive is WriteArchive for a suite this store already
// resolved (by LookupLocal, LookupCtx or EnsureCtx), so it skips the
// lookup's manifest re-hash. The instance files archived are those the
// suite's checksum index lists, so a missing one is an error rather than
// a shorter archive. They are read through ReadInstanceFile and so
// counted in Stats.FileReads.
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

// extractArchive unpacks a suite archive into dir, enforcing the layout:
// only manifest.json, checksums.json, and flat instances/<file> entries
// are accepted, with per-file and total size caps. Content is NOT
// verified here; the Store checks the manifest hash and checksums before
// committing anything it extracted.
func extractArchive(r io.Reader, dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "instances"), 0o755); err != nil {
		return err
	}
	tr := tar.NewReader(r)
	var total int64
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("suite: archive: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			return fmt.Errorf("suite: archive holds non-regular entry %q", hdr.Name)
		}
		if err := validArchiveName(hdr.Name); err != nil {
			return err
		}
		if hdr.Size < 0 || hdr.Size > maxArchiveFileBytes {
			return fmt.Errorf("suite: archive entry %q is %d bytes, cap is %d", hdr.Name, hdr.Size, maxArchiveFileBytes)
		}
		total += hdr.Size
		if total > maxArchiveTotalBytes {
			return fmt.Errorf("suite: archive exceeds total size cap %d", maxArchiveTotalBytes)
		}
		dst := filepath.Join(dir, filepath.FromSlash(hdr.Name))
		f, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, err = io.Copy(f, io.LimitReader(tr, hdr.Size+1))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("suite: archive entry %q: %w", hdr.Name, err)
		}
	}
}

// validArchiveName accepts exactly the files a suite archive may carry.
func validArchiveName(name string) error {
	if name == "manifest.json" || name == "checksums.json" {
		return nil
	}
	base, ok := strings.CutPrefix(name, "instances/")
	if !ok || base == "" || strings.ContainsAny(base, "/\\") || strings.Contains(base, "..") {
		return fmt.Errorf("suite: archive holds unexpected entry %q", name)
	}
	return nil
}
