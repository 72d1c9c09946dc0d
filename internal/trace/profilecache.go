package trace

// Persistence for the memoized profile store (the -profile-cache flag on
// cmd/spsim and cmd/experiments): the store's measurements, sorted in the
// store's canonical order, in the same versioned JSON envelope style as
// campaign results, with the same transparent ".gz" handling. Because a
// Measurement is a pure function of its key, loading a cache written by a
// previous process changes nothing but the time the first measurements
// take.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/profile"
)

// ProfileCacheVersion guards against reading incompatible cache files. It
// must change whenever the simulator's behaviour changes in a way that
// alters any measurement — a stale cache would otherwise silently pin the
// old numbers.
const ProfileCacheVersion = 1

// profileCacheEnvelope is the on-disk form.
type profileCacheEnvelope struct {
	Version      int                   `json:"version"`
	Measurements []profile.Measurement `json:"measurements"`
}

// WriteProfileCache serialises measurements to w as JSON.
func WriteProfileCache(w io.Writer, ms []profile.Measurement) error {
	enc := json.NewEncoder(w)
	env := profileCacheEnvelope{Version: ProfileCacheVersion, Measurements: ms}
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("trace: profile cache encode: %w", err)
	}
	return nil
}

// ReadProfileCache deserialises measurements from r, which must hold one
// envelope and nothing after it but whitespace.
func ReadProfileCache(r io.Reader) ([]profile.Measurement, error) {
	var env profileCacheEnvelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: profile cache decode: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return nil, errors.New("trace: profile cache decode: trailing data after envelope")
	}
	if env.Version != ProfileCacheVersion {
		return nil, fmt.Errorf("trace: profile cache version %d, want %d", env.Version, ProfileCacheVersion)
	}
	return env.Measurements, nil
}

// WriteProfileCacheFile persists a store's measurements to path; a ".gz"
// suffix enables gzip compression.
func WriteProfileCacheFile(path string, s *profile.Store) error {
	return writeFile(path, false, func(w io.Writer) error { return WriteProfileCache(w, s.Entries()) })
}

// LoadProfileCacheFile loads a persisted cache into the store. A missing
// file is not an error — the first run of a warm/cold cycle starts cold.
func LoadProfileCacheFile(path string, s *profile.Store) error {
	data, err := readFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	ms, err := ReadProfileCache(bytes.NewReader(data))
	if err != nil {
		return err
	}
	s.AddAll(ms)
	return nil
}
