package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	_ "embed"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/fault"
)

//go:embed testdata/expected.json
var embeddedExpected []byte

// expected holds the outputs a correct system produces, regenerated with
// -update from in-process fault.Simulate runs (never through the serve or
// shard layers, so those layers are checked against an independent path).
type expected struct {
	// Sample is the sample size the sampled pins were taken at; runs at
	// other sizes (the smoke tests') skip them and rely on the full outcomes.
	Sample int `json:"sample"`
	// UniverseHash identifies the fault universe the full outcomes are
	// aligned to; a different universe means the file is stale.
	UniverseHash string `json:"universe_hash"`
	// Digests pin digest() of a grade per key (see pinKey); Coverage pins
	// its weighted fault coverage in percent, to two decimals.
	Digests  map[string]string  `json:"digests"`
	Coverage map[string]float64 `json:"coverage"`
	// Full is each phase's full-universe outcome, packed by packOutcomes.
	// Outcomes are per-fault and independent of sampling and pass packing,
	// so every sampled grade at any seed is checked fault by fault
	// against it.
	Full map[string]string `json:"full_outcomes"`

	full map[string]outcomes
}

// outcomes is one grade's per-fault result, aligned to its fault list.
type outcomes struct {
	det []int32
	sig []uint8
}

func loadExpected(path string) (*expected, error) {
	data := embeddedExpected
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	e := &expected{}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	e.full = make(map[string]outcomes, len(e.Full))
	for ph, packed := range e.Full {
		o, err := unpackOutcomes(packed)
		if err != nil {
			return nil, fmt.Errorf("expected outputs, phase %s: %w", ph, err)
		}
		e.full[ph] = o
	}
	return e, nil
}

func (e *expected) write(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pinKey names one pinned grade: workload, phase and seed. Workloads whose
// inputs do not depend on the seed pass seed < 0.
func pinKey(workload, phase string, seed int64) string {
	if seed < 0 {
		return workload + "/" + phase
	}
	return fmt.Sprintf("%s/%s/seed%d", workload, phase, seed)
}

// digest is the SHA-256 over a grade's DetectedAt (little-endian int32)
// followed by its SignatureGroups.
func digest(det []int32, sig []uint8) string {
	h := sha256.New()
	buf := make([]byte, 4*len(det))
	for i, d := range det {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(d))
	}
	h.Write(buf)
	h.Write(sig)
	return hex.EncodeToString(h.Sum(nil))
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// checkPinned compares a grade with the digest and coverage pinned under
// key, when there are any.
func (e *expected) checkPinned(key string, res *fault.Result) error {
	if want, ok := e.Digests[key]; ok {
		if got := digest(res.DetectedAt, res.SignatureGroups); got != want {
			return fmt.Errorf("%s: digest %.16s, want %.16s", key, got, want)
		}
	}
	if want, ok := e.Coverage[key]; ok {
		if got := round2(res.WeightedCoverage()); got != want {
			return fmt.Errorf("%s: weighted coverage %.2f%%, want %.2f%%", key, got, want)
		}
	}
	return nil
}

// checkFull compares every fault of a grade of phase's golden with its
// full-universe outcome; index maps a fault to its universe position.
func (e *expected) checkFull(phase string, res *fault.Result, index map[fault.Fault]int) error {
	ref, ok := e.full[phase]
	if !ok {
		return fmt.Errorf("no full-universe outcomes for phase %s", phase)
	}
	if len(res.DetectedAt) != len(res.Faults) || len(res.SignatureGroups) != len(res.Faults) {
		return fmt.Errorf("phase %s: %d/%d outcomes for %d faults",
			phase, len(res.DetectedAt), len(res.SignatureGroups), len(res.Faults))
	}
	for j, f := range res.Faults {
		u, ok := index[f]
		if !ok {
			return fmt.Errorf("phase %s: graded fault %v is not in the universe", phase, f.Site)
		}
		if res.DetectedAt[j] != ref.det[u] || res.SignatureGroups[j] != ref.sig[u] {
			return fmt.Errorf("phase %s: fault %v detected at %d (groups %#x), want %d (groups %#x)",
				phase, f.Site, res.DetectedAt[j], res.SignatureGroups[j], ref.det[u], ref.sig[u])
		}
	}
	return nil
}

// packOutcomes encodes outcomes as base64(gzip(DetectedAt as little-endian
// int32, then SignatureGroups)).
func packOutcomes(det []int32, sig []uint8) (string, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	raw := make([]byte, 4*len(det))
	for i, d := range det {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(d))
	}
	zw.Write(raw)
	zw.Write(sig)
	if err := zw.Close(); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

func unpackOutcomes(s string) (outcomes, error) {
	z, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return outcomes{}, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		return outcomes{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return outcomes{}, err
	}
	if len(raw)%5 != 0 {
		return outcomes{}, fmt.Errorf("packed outcomes: %d bytes is not 5 per fault", len(raw))
	}
	n := len(raw) / 5
	o := outcomes{det: make([]int32, n), sig: raw[4*n:]}
	for i := range o.det {
		o.det[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return o, nil
}
