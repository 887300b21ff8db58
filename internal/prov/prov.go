// Package prov is the run-provenance layer: every artifact directory a
// run emits gains a manifest.json that ties the results to their
// inputs — the full resolved request identity (scenario, params, seed,
// sampler, cache key epoch, wire/fleet shape), the toolchain and git
// revision that produced them, SHA-256 digests of every emitted file,
// and the per-stage timing deltas the observability layer collects.
//
// The manifest is tamper-evident: it carries a self-hash over its own
// canonical encoding, and VerifyDir re-hashes both the manifest and
// every artifact, so flipping one byte of any file — or editing one
// manifest field — fails verification. `cs verify RUNDIR` is the CLI
// face of VerifyDir; `cs exp analyze` refuses to aggregate runs that
// do not verify, which is what makes every figure regenerable from
// provenance alone.
//
// The package deliberately depends only on the standard library so any
// layer (engine, the experiment runner, external tooling) can stamp or
// check a directory without import cycles.
package prov

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// ManifestName is the manifest's file name inside a run directory.
const ManifestName = "manifest.json"

// SchemaVersion versions the manifest document shape. Bump on any
// field change that would make old verifiers misread new manifests.
const SchemaVersion = 1

// Artifact is one emitted file, named relative to the run directory.
type Artifact struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Toolchain records what compiled and ran the binary.
type Toolchain struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// VCS records the source revision the binary was built from. Revision
// is empty when neither the build info nor a git checkout could name
// it; Dirty means the working tree had uncommitted changes.
type VCS struct {
	Revision string `json:"revision,omitempty"`
	Dirty    bool   `json:"dirty,omitempty"`
}

// ExecInfo is the execution shape of the run — how the work was
// routed, not what it computed. The CLI fills it from the resolved
// flags; the experiment runner adds the grid coordinates.
type ExecInfo struct {
	// Workers is the fleet host list ("" = in-process only).
	Workers []string `json:"workers,omitempty"`
	// Parallel is the pinned pool width (0 = GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// Cache/CacheDir/Prefetch describe the caching executor, when on.
	Cache    bool   `json:"cache,omitempty"`
	CacheDir string `json:"cache_dir,omitempty"`
	Prefetch bool   `json:"prefetch,omitempty"`
	// Fault is the armed fault-injection schedule, so chaos runs are
	// distinguishable from clean ones in the trajectory.
	Fault string `json:"fault,omitempty"`
	// Experiment and Repeat are the grid coordinates stamped by
	// `cs exp run` (empty/0 for ad-hoc runs).
	Experiment string `json:"experiment,omitempty"`
	Repeat     int    `json:"repeat,omitempty"`
}

// Stage is one per-variant timing row — the manifest's copy of the
// timings.csv breakdown, so provenance alone reconstructs where the
// run spent its time.
type Stage struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Count   float64 `json:"count"`
}

// Variant is one grid point's resolved identity and outcome.
type Variant struct {
	Variant string `json:"variant,omitempty"`
	// Params is the fully resolved parameter struct, canonical JSON.
	Params json.RawMessage `json:"params,omitempty"`
	// Metrics are the deterministic headline numbers (result.json's).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// WallSeconds and Stages are volatile timing provenance.
	WallSeconds float64 `json:"wall_seconds"`
	Stages      []Stage `json:"stages,omitempty"`
}

// Manifest ties one run directory's artifacts to their inputs.
type Manifest struct {
	Schema  int       `json:"schema"`
	Created time.Time `json:"created"`

	// Request identity.
	Scenario string `json:"scenario"`
	Scale    string `json:"scale"`
	Seed     string `json:"seed,omitempty"`
	Sampler  string `json:"sampler,omitempty"`
	// SamplerChoices records the auto-scheduler's resolved per-kernel
	// strategies when the run was `-sampler auto` — what actually
	// evaluated the shards, where Sampler only records the request.
	SamplerChoices map[string]string `json:"sampler_choices,omitempty"`
	RelErr         float64           `json:"rel_err,omitempty"`
	MaxSamples     int               `json:"max_samples,omitempty"`
	Sets           []string          `json:"sets,omitempty"`
	Grid           []string          `json:"grid,omitempty"`
	// CacheKeyEpoch is the result-cache key-space version the binary
	// ran under: two runs with equal identity but different epochs may
	// differ in which work was recomputed versus served from disk.
	CacheKeyEpoch int      `json:"cache_key_epoch"`
	Exec          ExecInfo `json:"exec"`

	// Provenance of the binary.
	Toolchain Toolchain `json:"toolchain"`
	VCS       VCS       `json:"vcs"`

	// Outcome.
	ElapsedSeconds   float64   `json:"elapsed_seconds"`
	EvaluatedSamples int64     `json:"evaluated_samples"`
	Variants         []Variant `json:"variants,omitempty"`

	// Artifacts lists every file in the run directory (except the
	// manifest itself) with its digest.
	Artifacts []Artifact `json:"artifacts"`

	// ManifestSHA256 is the self-hash: SHA-256 of the manifest's
	// canonical (compact) JSON encoding with this field empty. It is
	// what makes editing any manifest field detectable.
	ManifestSHA256 string `json:"manifest_sha256"`
}

// SelfHash computes the manifest's canonical self-hash. The canonical
// form is compact json.Marshal output with ManifestSHA256 cleared —
// deterministic because Go sorts map keys and compacts RawMessage.
func (m *Manifest) SelfHash() (string, error) {
	clone := *m
	clone.ManifestSHA256 = ""
	canonical, err := json.Marshal(&clone)
	if err != nil {
		return "", fmt.Errorf("prov: canonicalize manifest: %w", err)
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:]), nil
}

// HashFile returns the hex SHA-256 of one file's contents.
func HashFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// listFiles returns every regular file under dir, named relative to
// dir with forward slashes, sorted. Run directories are flat today,
// but the walk keeps the manifest honest if a scenario ever nests.
func listFiles(dir string) ([]string, error) {
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Stamp fills m.Artifacts with a digest of every file currently in
// dir, computes the self-hash, and writes ManifestName into dir. It
// must be called after every other artifact is on disk — anything
// written later is drift by definition.
func Stamp(dir string, m *Manifest) error {
	names, err := listFiles(dir)
	if err != nil {
		return fmt.Errorf("prov: scan %s: %w", dir, err)
	}
	m.Artifacts = m.Artifacts[:0]
	for _, name := range names {
		if name == ManifestName {
			continue
		}
		sum, size, err := HashFile(filepath.Join(dir, filepath.FromSlash(name)))
		if err != nil {
			return fmt.Errorf("prov: hash %s: %w", name, err)
		}
		m.Artifacts = append(m.Artifacts, Artifact{Name: name, Bytes: size, SHA256: sum})
	}
	hash, err := m.SelfHash()
	if err != nil {
		return err
	}
	m.ManifestSHA256 = hash
	js, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("prov: marshal manifest: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(js, '\n'), 0o644)
}

// Load reads and decodes dir's manifest without verifying anything.
func Load(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("prov: decode %s: %w", ManifestName, err)
	}
	return &m, nil
}

// VerifyError reports every integrity problem found in one run
// directory. It is an error so `cs verify` exits nonzero on any drift.
type VerifyError struct {
	Dir      string
	Problems []string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("prov: %s failed verification:\n  %s",
		e.Dir, strings.Join(e.Problems, "\n  "))
}

// VerifyDir re-checks a run directory against its manifest: the
// manifest self-hash, every artifact's size and SHA-256, missing
// artifacts, and files present but never manifested. It returns the
// (decoded) manifest and nil on a clean pass, or a *VerifyError
// listing every problem.
func VerifyDir(dir string) (*Manifest, error) {
	m, err := Load(dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	if m.Schema > SchemaVersion {
		problems = append(problems, fmt.Sprintf("manifest schema %d is newer than this binary understands (%d)", m.Schema, SchemaVersion))
	}
	want, err := m.SelfHash()
	if err != nil {
		return m, err
	}
	if m.ManifestSHA256 != want {
		problems = append(problems, "manifest self-hash mismatch: a manifest field was edited after stamping")
	}
	manifested := make(map[string]bool, len(m.Artifacts))
	for _, a := range m.Artifacts {
		if !fs.ValidPath(a.Name) {
			problems = append(problems, fmt.Sprintf("%s: invalid artifact path", a.Name))
			continue
		}
		manifested[a.Name] = true
		sum, size, err := HashFile(filepath.Join(dir, filepath.FromSlash(a.Name)))
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: missing (%v)", a.Name, err))
		case size != a.Bytes:
			problems = append(problems, fmt.Sprintf("%s: %d bytes, manifest says %d", a.Name, size, a.Bytes))
		case sum != a.SHA256:
			problems = append(problems, fmt.Sprintf("%s: content hash mismatch (artifact modified after the run)", a.Name))
		}
	}
	names, err := listFiles(dir)
	if err != nil {
		return m, err
	}
	for _, name := range names {
		if name != ManifestName && !manifested[name] {
			problems = append(problems, fmt.Sprintf("%s: present but not manifested (added after the run)", name))
		}
	}
	if len(problems) > 0 {
		return m, &VerifyError{Dir: dir, Problems: problems}
	}
	return m, nil
}

// FindManifests walks root and returns every directory containing a
// manifest, sorted — the discovery step behind `cs verify` on a parent
// directory and `cs exp analyze`.
func FindManifests(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == ManifestName {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// CurrentToolchain reports the running binary's toolchain.
func CurrentToolchain() Toolchain {
	return Toolchain{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

var (
	vcsOnce sync.Once
	vcsInfo VCS
)

// CurrentVCS reports the source revision, preferring the VCS stamp
// `go build` embeds and falling back to asking git about the working
// directory (the `go run` and `go test` paths, which carry no stamp).
// Best-effort: an empty Revision means "unknown", never a guess. The
// result is cached — revision and dirtiness are process-constant.
func CurrentVCS() VCS {
	vcsOnce.Do(func() {
		if info, ok := debug.ReadBuildInfo(); ok {
			for _, s := range info.Settings {
				switch s.Key {
				case "vcs.revision":
					vcsInfo.Revision = s.Value
				case "vcs.modified":
					vcsInfo.Dirty = s.Value == "true"
				}
			}
			if vcsInfo.Revision != "" {
				return
			}
		}
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return
		}
		vcsInfo.Revision = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		if err == nil {
			vcsInfo.Dirty = len(strings.TrimSpace(string(status))) > 0
		}
	})
	return vcsInfo
}
