package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
)

// TrajectorySchema is the current BENCH_trajectory.json schema version.
const TrajectorySchema = 1

// TrajectoryPoint is one timestamped performance sample: the full set of
// per-machine bench entries measured in a single `benchtab
// -append-trajectory` run.
type TrajectoryPoint struct {
	// Time is the sample time, RFC 3339 in UTC.
	Time string `json:"time"`
	// Host describes the sampling machine (GOOS/GOARCH, CPU count).
	Host string `json:"host"`
	// Entries holds one sample per machine profile registered at the time
	// the point was taken.
	Entries []BenchEntry `json:"entries"`
	// Ciphers holds one cipher-core timing sample per cipher registered at
	// the time the point was taken (scalar vs bitsliced ns/encryption).
	// Points predating the bitsliced cores omit the field; the latest point
	// must carry it and cover the cipher registry exactly.
	Ciphers []CipherBenchEntry `json:"ciphers,omitempty"`
	// Probes holds one cache-probe timing sample per registered probe
	// technique (ns per measurement window on the default machine).  Points
	// predating the cache layer omit the field; the latest point must carry
	// it and cover cache.Techniques exactly.
	Probes []ProbeBenchEntry `json:"probes,omitempty"`
}

// TrajectoryFile is the append-only performance history: it keeps every
// appended point so regressions show up as a bend in the curve rather than
// silently replacing a baseline.
type TrajectoryFile struct {
	// Schema is TrajectorySchema at emission time.
	Schema int `json:"schema"`
	// Note records how to extend the file.
	Note string `json:"note"`
	// Points is the append-only history, oldest first.
	Points []TrajectoryPoint `json:"points"`
}

// trajectoryNote is written into fresh trajectory files.
const trajectoryNote = "append-only; extend with: go run ./cmd/benchtab -append-trajectory BENCH_trajectory.json"

// ParseTrajectoryFile strictly decodes and shape-checks a trajectory
// document: known schema, at least one point, strictly increasing RFC 3339
// timestamps, and non-empty entries with positive timings throughout.  The
// LATEST point must cover exactly the currently registered machine set AND
// the currently registered cipher set (its cipher-core timing rows) AND the
// registered probe-technique set (its cache-probe rows) — that is the
// regression gate `benchtab -check-trajectory` runs in CI.  Older points
// are historical: they may name machines that have since been renamed or
// removed, or predate the cipher or probe rows entirely (append-only files
// outlive the registry), so only their internal shape is checked.
func ParseTrajectoryFile(data []byte) (TrajectoryFile, error) {
	f, err := parseTrajectoryHistory(data)
	if err != nil {
		return TrajectoryFile{}, err
	}
	var errs []error
	last := f.Points[len(f.Points)-1]
	if err := checkCoversRegistry(last); err != nil {
		errs = append(errs, err)
	}
	if err := checkCoversCipherRegistry(last); err != nil {
		errs = append(errs, err)
	}
	if err := checkCoversProbeTechniques(last); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return TrajectoryFile{}, fmt.Errorf("machine: trajectory file invalid: latest point: %w", err)
	}
	return f, nil
}

// parseTrajectoryHistory decodes and shape-checks everything except the
// latest-point registry coverage — the parse AppendPoint needs, since the
// point it is about to add becomes the latest.
func parseTrajectoryHistory(data []byte) (TrajectoryFile, error) {
	var f TrajectoryFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return TrajectoryFile{}, fmt.Errorf("machine: decode trajectory file: %w", err)
	}
	var errs []error
	if f.Schema != TrajectorySchema {
		errs = append(errs, fmt.Errorf("schema %d, want %d", f.Schema, TrajectorySchema))
	}
	if len(f.Points) == 0 {
		errs = append(errs, errors.New("no points"))
	}
	var prev time.Time
	for i, p := range f.Points {
		ts, err := time.Parse(time.RFC3339, p.Time)
		if err != nil {
			errs = append(errs, fmt.Errorf("point %d: bad timestamp %q: %v", i, p.Time, err))
		} else {
			if i > 0 && !ts.After(prev) {
				errs = append(errs, fmt.Errorf("point %d: timestamp %q not after point %d (%q) — the file is append-only",
					i, p.Time, i-1, f.Points[i-1].Time))
			}
			prev = ts
		}
		if len(p.Entries) == 0 {
			errs = append(errs, fmt.Errorf("point %d: no entries", i))
		}
		for j, e := range p.Entries {
			if e.Machine == "" {
				errs = append(errs, fmt.Errorf("point %d entry %d: empty machine name", i, j))
			}
			if e.HammerNsPerActivation <= 0 || e.AttackTrialMs <= 0 {
				errs = append(errs, fmt.Errorf("point %d entry %d (%s): non-positive timings (%g ns/act, %g ms)",
					i, j, e.Machine, e.HammerNsPerActivation, e.AttackTrialMs))
			}
		}
		for j, e := range p.Ciphers {
			if e.Cipher == "" {
				errs = append(errs, fmt.Errorf("point %d cipher row %d: empty cipher name", i, j))
			}
			if e.ScalarNsPerEncryption <= 0 || e.BitslicedNsPerEncryption <= 0 {
				errs = append(errs, fmt.Errorf("point %d cipher row %d (%s): non-positive timings (%g scalar ns, %g bitsliced ns)",
					i, j, e.Cipher, e.ScalarNsPerEncryption, e.BitslicedNsPerEncryption))
			}
			if e.Lanes <= 0 {
				errs = append(errs, fmt.Errorf("point %d cipher row %d (%s): non-positive lane count %d", i, j, e.Cipher, e.Lanes))
			}
		}
		for j, e := range p.Probes {
			if e.Technique == "" {
				errs = append(errs, fmt.Errorf("point %d probe row %d: empty technique name", i, j))
			}
			if e.NsPerMeasurement <= 0 {
				errs = append(errs, fmt.Errorf("point %d probe row %d (%s): non-positive timing (%g ns/measurement)",
					i, j, e.Technique, e.NsPerMeasurement))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return TrajectoryFile{}, fmt.Errorf("machine: trajectory file invalid: %w", err)
	}
	return f, nil
}

// checkCoversRegistry verifies a point samples exactly the registered
// machine set — no stale names, no missing profiles, no duplicates.
func checkCoversRegistry(p TrajectoryPoint) error {
	var errs []error
	sampled := make(map[string]bool, len(p.Entries))
	for _, e := range p.Entries {
		if sampled[e.Machine] {
			errs = append(errs, fmt.Errorf("machine %q sampled twice", e.Machine))
		}
		sampled[e.Machine] = true
		if _, ok := Get(e.Machine); !ok {
			errs = append(errs, fmt.Errorf("machine %q is not registered", e.Machine))
		}
	}
	for _, name := range Names() {
		if !sampled[name] {
			errs = append(errs, fmt.Errorf("registered machine %q has no sample", name))
		}
	}
	return errors.Join(errs...)
}

// checkCoversCipherRegistry verifies a point's cipher rows sample exactly
// the registered cipher set — no stale names, no missing ciphers, no
// duplicates.  Only the latest point is held to this (older points predate
// the cipher rows or a registry change).
func checkCoversCipherRegistry(p TrajectoryPoint) error {
	var errs []error
	sampled := make(map[string]bool, len(p.Ciphers))
	for _, e := range p.Ciphers {
		if sampled[e.Cipher] {
			errs = append(errs, fmt.Errorf("cipher %q sampled twice", e.Cipher))
		}
		sampled[e.Cipher] = true
		if _, ok := registry.Get(e.Cipher); !ok {
			errs = append(errs, fmt.Errorf("cipher %q is not registered", e.Cipher))
		}
	}
	for _, name := range registry.Names() {
		if !sampled[name] {
			errs = append(errs, fmt.Errorf("registered cipher %q has no sample", name))
		}
	}
	return errors.Join(errs...)
}

// checkCoversProbeTechniques verifies a point's cache-probe rows sample
// exactly the registered probe-technique set — no stale names, no missing
// techniques, no duplicates.  Only the latest point is held to this (older
// points predate the cache layer or a technique change).
func checkCoversProbeTechniques(p TrajectoryPoint) error {
	var errs []error
	sampled := make(map[string]bool, len(p.Probes))
	for _, e := range p.Probes {
		if sampled[e.Technique] {
			errs = append(errs, fmt.Errorf("probe technique %q sampled twice", e.Technique))
		}
		sampled[e.Technique] = true
		if !cache.KnownTechnique(e.Technique) {
			errs = append(errs, fmt.Errorf("probe technique %q is not registered", e.Technique))
		}
	}
	for _, name := range cache.Techniques() {
		if !sampled[name] {
			errs = append(errs, fmt.Errorf("registered probe technique %q has no sample", name))
		}
	}
	return errors.Join(errs...)
}

// AppendPoint extends the trajectory in data (or starts a fresh file when
// data is empty) with one point carrying the given machine bench entries,
// cipher-core timing rows and cache-probe timing rows, stamped now.  The
// existing history is never rewritten: points only grow at the tail, and a
// timestamp at or before the last point is rejected rather than reordered.
func AppendPoint(data []byte, host string, entries []BenchEntry, ciphers []CipherBenchEntry, probes []ProbeBenchEntry, now time.Time) ([]byte, error) {
	f := TrajectoryFile{Schema: TrajectorySchema, Note: trajectoryNote}
	if len(data) > 0 {
		parsed, err := parseTrajectoryHistory(data)
		if err != nil {
			return nil, err
		}
		f = parsed
	}
	if len(entries) == 0 {
		return nil, errors.New("machine: refusing to append a point with no entries")
	}
	p := TrajectoryPoint{Time: now.UTC().Format(time.RFC3339), Host: host, Entries: entries, Ciphers: ciphers, Probes: probes}
	if err := checkCoversRegistry(p); err != nil {
		return nil, fmt.Errorf("machine: new trajectory point: %w", err)
	}
	if err := checkCoversCipherRegistry(p); err != nil {
		return nil, fmt.Errorf("machine: new trajectory point: %w", err)
	}
	if err := checkCoversProbeTechniques(p); err != nil {
		return nil, fmt.Errorf("machine: new trajectory point: %w", err)
	}
	if n := len(f.Points); n > 0 {
		last, err := time.Parse(time.RFC3339, f.Points[n-1].Time)
		if err == nil && !now.UTC().After(last) {
			return nil, fmt.Errorf("machine: new point at %s is not after the last point (%s)",
				p.Time, f.Points[n-1].Time)
		}
	}
	f.Points = append(f.Points, p)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
