package workload

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// The declarative suite registry: a suites.toml file maps entry names to
// either a fixed-suite benchmark or a synthetic family with parameter
// overrides, and pins each entry's golden-invariant hash (the SHA-256 the
// suitecheck harness computes over the entry's profile→simulate→predict
// outputs at the recorded seed and scale). The embedded default file is
// what `rppm suite`, `rppm-experiments -suites`, the server's benchmark
// listing, and the golden-invariant tests load.
//
// The file format is the array-of-tables TOML subset below, parsed by hand
// because the module deliberately has no dependencies:
//
//	[[suite]]
//	name = "skewed-sharing"      # unique entry name (= benchmark name)
//	family = "skewed-sharing"    # synthetic family; omit for a fixed-suite benchmark
//	seed = 1                     # workload seed (default 1)
//	scale = 0.5                  # block-size scale in (0, 1] (default 0.05)
//	invariant = "<64 hex chars>" # golden hash, required
//
//	[suite.params]               # family parameter overrides (families only)
//	theta = 0.99
//
// Comments (#), blank lines, quoted strings, and numeric values are
// supported; nothing else is. The parser returns errors — with line
// numbers — for everything outside the subset, and never panics.

//go:embed suites.toml
var defaultSuitesTOML []byte

// SuiteEntry is one registry row: a named, seeded, scaled workload
// instantiation with its expected golden-invariant hash.
type SuiteEntry struct {
	Name      string
	Family    string // synthetic family name; empty = fixed-suite benchmark
	Seed      uint64
	Scale     float64
	Invariant string // SHA-256 hex of the suitecheck invariant
	Params    map[string]float64
}

// Benchmark resolves the entry to a buildable Benchmark: family entries
// instantiate their family with the entry's parameter overrides,
// benchmark entries resolve against the fixed suite by name.
func (e SuiteEntry) Benchmark() (Benchmark, error) {
	if e.Family != "" {
		f, err := FamilyByName(e.Family)
		if err != nil {
			return Benchmark{}, err
		}
		return f.Bench(e.Name, e.Params)
	}
	return ByName(e.Name)
}

// SuiteRegistry is a parsed, validated suite registry.
type SuiteRegistry struct {
	Entries []SuiteEntry
	index   map[string]int
}

// ByName returns the named registry entry.
func (r *SuiteRegistry) ByName(name string) (SuiteEntry, bool) {
	i, ok := r.index[name]
	if !ok {
		return SuiteEntry{}, false
	}
	return r.Entries[i], true
}

// tomlError is a parse/validation failure with a 1-based line number
// (0 for whole-file validation errors).
func tomlError(line int, format string, args ...any) error {
	if line > 0 {
		return fmt.Errorf("workload: suites.toml line %d: %s", line, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("workload: suites.toml: %s", fmt.Sprintf(format, args...))
}

// stripComment drops a trailing # comment, respecting quoted strings.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

// bareKey reports whether s is a valid unquoted TOML key.
func bareKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '_' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// parseString parses a basic quoted string (no escapes — entry names and
// hashes need none).
func parseString(v string, line int) (string, error) {
	if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
		return "", tomlError(line, "malformed string %s", v)
	}
	inner := v[1 : len(v)-1]
	if strings.ContainsAny(inner, "\"\\") {
		return "", tomlError(line, "string escapes are not supported: %s", v)
	}
	return inner, nil
}

// ParseSuites parses and validates a suites.toml document. Every failure —
// syntax outside the subset, unknown keys or families, out-of-range or
// malformed parameter values, duplicate names, missing invariant hashes —
// is a returned error, never a panic.
func ParseSuites(data []byte) (*SuiteRegistry, error) {
	r := &SuiteRegistry{index: make(map[string]int)}
	var cur *SuiteEntry
	inParams := false
	entryLine := 0

	flush := func() error {
		if cur == nil {
			return nil
		}
		if err := validateEntry(*cur, entryLine); err != nil {
			return err
		}
		if _, dup := r.index[cur.Name]; dup {
			return tomlError(entryLine, "duplicate suite name %q", cur.Name)
		}
		r.index[cur.Name] = len(r.Entries)
		r.Entries = append(r.Entries, *cur)
		return nil
	}

	for ln, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(stripComment(raw))
		lineNo := ln + 1
		if line == "" {
			continue
		}
		switch {
		case line == "[[suite]]":
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &SuiteEntry{Seed: 1, Scale: 0.05}
			inParams = false
			entryLine = lineNo
		case line == "[suite.params]":
			if cur == nil {
				return nil, tomlError(lineNo, "[suite.params] outside a [[suite]] entry")
			}
			if cur.Params != nil {
				return nil, tomlError(lineNo, "duplicate [suite.params] table")
			}
			cur.Params = make(map[string]float64)
			inParams = true
		case strings.HasPrefix(line, "["):
			return nil, tomlError(lineNo, "unsupported table %s", line)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, tomlError(lineNo, "expected key = value, got %q", line)
			}
			key := strings.TrimSpace(line[:eq])
			val := strings.TrimSpace(line[eq+1:])
			if !bareKey(key) {
				return nil, tomlError(lineNo, "malformed key %q", key)
			}
			if val == "" {
				return nil, tomlError(lineNo, "key %s has no value", key)
			}
			if cur == nil {
				return nil, tomlError(lineNo, "key %s outside a [[suite]] entry", key)
			}
			if inParams {
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, tomlError(lineNo, "parameter %s: not a number: %s", key, val)
				}
				if _, dup := cur.Params[key]; dup {
					return nil, tomlError(lineNo, "duplicate parameter %s", key)
				}
				cur.Params[key] = f
				continue
			}
			if err := setEntryField(cur, key, val, lineNo); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(r.Entries) == 0 {
		return nil, tomlError(0, "no [[suite]] entries")
	}
	return r, nil
}

// setEntryField assigns one top-level key of a [[suite]] entry.
func setEntryField(e *SuiteEntry, key, val string, line int) error {
	switch key {
	case "name", "family", "invariant":
		s, err := parseString(val, line)
		if err != nil {
			return err
		}
		switch key {
		case "name":
			e.Name = s
		case "family":
			e.Family = s
		case "invariant":
			e.Invariant = s
		}
	case "seed":
		u, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return tomlError(line, "seed: not a non-negative integer: %s", val)
		}
		e.Seed = u
	case "scale":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return tomlError(line, "scale: not a number: %s", val)
		}
		e.Scale = f
	default:
		return tomlError(line, "unknown key %s (have: name, family, seed, scale, invariant)", key)
	}
	return nil
}

// validateEntry checks a completed entry: required fields, ranges, and
// that it resolves — the family (or fixed-suite benchmark) exists and
// accepts the parameter overrides.
func validateEntry(e SuiteEntry, line int) error {
	if e.Name == "" {
		return tomlError(line, "entry has no name")
	}
	if e.Scale <= 0 || e.Scale > 1 {
		return tomlError(line, "entry %s: scale %v out of (0, 1]", e.Name, e.Scale)
	}
	if e.Invariant == "" {
		return tomlError(line, "entry %s: missing invariant hash", e.Name)
	}
	if len(e.Invariant) != 64 || !isHex(e.Invariant) {
		return tomlError(line, "entry %s: invariant must be 64 lowercase hex chars", e.Name)
	}
	if e.Family == "" {
		if len(e.Params) > 0 {
			return tomlError(line, "entry %s: [suite.params] requires a family", e.Name)
		}
		if _, err := ByName(e.Name); err != nil {
			return tomlError(line, "entry %s: %v", e.Name, err)
		}
		return nil
	}
	f, err := FamilyByName(e.Family)
	if err != nil {
		return tomlError(line, "entry %s: %v", e.Name, err)
	}
	if err := f.Validate(e.Params); err != nil {
		return tomlError(line, "entry %s: %v", e.Name, err)
	}
	return nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

var (
	defaultSuitesOnce sync.Once
	defaultSuitesReg  *SuiteRegistry
	defaultSuitesErr  error
)

// DefaultSuites parses the embedded default registry (cached after the
// first call).
func DefaultSuites() (*SuiteRegistry, error) {
	defaultSuitesOnce.Do(func() {
		defaultSuitesReg, defaultSuitesErr = ParseSuites(defaultSuitesTOML)
	})
	return defaultSuitesReg, defaultSuitesErr
}

// ResolveBenchmark resolves a name against the fixed suite first, then the
// default registry — so family instances declared in suites.toml are
// addressable everywhere a benchmark name is accepted (CLI, server,
// experiments).
func ResolveBenchmark(name string) (Benchmark, error) {
	ix := suiteIndex()
	if bm, ok := ix.byName[name]; ok {
		return bm, nil
	}
	reg, regErr := DefaultSuites()
	if regErr == nil {
		if e, ok := reg.ByName(name); ok {
			return e.Benchmark()
		}
	}
	names := append([]string(nil), ix.names...)
	if regErr == nil {
		for _, e := range reg.Entries {
			if _, fixed := ix.byName[e.Name]; !fixed {
				names = append(names, e.Name)
			}
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have: %v)", name, names)
}
