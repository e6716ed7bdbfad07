package suite

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// disk is the local on-disk layout backend of a Store: it owns the
// directory scheme (v<schema>/<hh>/<hash>/{manifest.json, checksums.json,
// COMPLETE, instances/*}), staging, and the atomic rename commit. The
// Store layers counters, single-flight and the cross-process lease on
// top; everything that touches bytes on the local filesystem lives here.
type disk struct {
	root string
}

func (d disk) versionDir() string {
	return filepath.Join(d.root, fmt.Sprintf("v%d", SchemaVersion))
}

// tmpRoot holds staging directories and lease files; the Open-time
// janitor sweeps both by age.
func (d disk) tmpRoot() string {
	return filepath.Join(d.root, "tmp")
}

// suiteDir shards by the first two hash characters to keep any single
// directory small under heavy population.
func (d disk) suiteDir(hash string) string {
	return filepath.Join(d.versionDir(), hash[:2], hash)
}

func (d disk) instanceDir(hash string) string {
	return filepath.Join(d.suiteDir(hash), "instances")
}

// stage creates a fresh staging directory under tmp/.
func (d disk) stage(prefix string) (string, error) {
	return os.MkdirTemp(d.tmpRoot(), prefix+"-*")
}

// commit atomically renames a fully staged suite directory into its
// content address. The caller must already have written the COMPLETE
// marker into tmp; a concurrent committer winning the rename is reported
// as-is so the caller can adopt the winner's bytes.
func (d disk) commit(tmp, hash string) error {
	final := d.suiteDir(hash)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// open loads a completed suite and cross-checks the stored manifest
// against its directory name.
func (d disk) open(hash string) (*Suite, error) {
	dir := d.suiteDir(hash)
	if _, err := os.Stat(filepath.Join(dir, completeMarker)); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("suite: manifest %s: %w", hash, err)
	}
	m.normalize()
	if got := m.Hash(); got != hash {
		return nil, fmt.Errorf("suite: store corruption: directory %s holds manifest hashing to %s", hash, got)
	}
	return &Suite{
		Hash:      hash,
		Manifest:  m,
		Metric:    m.Metric(),
		Dir:       dir,
		Instances: m.InstanceRefs(),
		Cached:    true,
	}, nil
}

// list returns the content addresses of every completed suite, sorted.
func (d disk) list() ([]string, error) {
	var out []string
	shards, err := os.ReadDir(d.versionDir())
	if err != nil {
		return nil, err
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		suites, err := os.ReadDir(filepath.Join(d.versionDir(), shard.Name()))
		if err != nil {
			return nil, err
		}
		for _, e := range suites {
			if !e.IsDir() {
				continue
			}
			if _, err := os.Stat(filepath.Join(d.versionDir(), shard.Name(), e.Name(), completeMarker)); err == nil {
				out = append(out, e.Name())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// verifyChecksumIndex re-hashes every instance file in dir against its
// checksums.json.
func verifyChecksumIndex(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "checksums.json"))
	if err != nil {
		return err
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("checksums: %w", err)
	}
	got, err := checksumDir(filepath.Join(dir, "instances"))
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d instance files, checksum index lists %d", len(got), len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			return fmt.Errorf("file %s hashes to %s, index says %s", name, got[name], sum)
		}
	}
	return nil
}
