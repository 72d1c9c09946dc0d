package trace

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/power2"
	"repro/internal/profile"
)

// Round-tripping a store through the cache file must reproduce every
// measurement bit-for-bit, including float fields (Go's JSON encoder
// emits the shortest form that parses back to the identical float64).
func TestProfileCacheRoundTrip(t *testing.T) {
	for _, name := range []string{"cache.json", "cache.json.gz"} {
		t.Run(name, func(t *testing.T) {
			src := profile.NewStore()
			k, ok := kernels.ByName("matmul")
			if !ok {
				t.Fatal("missing kernel matmul")
			}
			src.Measure(k, power2.Config{Seed: 1}, 10_000)
			src.Measure(k, power2.Config{Seed: 2}, 10_000)

			path := filepath.Join(t.TempDir(), name)
			if err := WriteProfileCacheFile(path, src); err != nil {
				t.Fatal(err)
			}

			dst := profile.NewStore()
			if err := LoadProfileCacheFile(path, dst); err != nil {
				t.Fatal(err)
			}
			want, got := src.Entries(), dst.Entries()
			if len(got) != len(want) {
				t.Fatalf("loaded %d measurements, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("measurement %d changed across the round trip:\n wrote %+v\n read  %+v", i, want[i], got[i])
				}
			}

			// A warm load must turn the first Measure into a hit.
			if m := dst.Measure(k, power2.Config{Seed: 1}, 10_000); m != want[0] && m != want[1] {
				t.Fatal("measurement after warm load diverged")
			}
			if st := dst.Stats(); st.Hits != 1 || st.Misses != 0 {
				t.Fatalf("warm store stats = %+v, want pure hit", st)
			}
		})
	}
}

// A missing cache file is a cold start, not an error.
func TestProfileCacheMissingFile(t *testing.T) {
	s := profile.NewStore()
	if err := LoadProfileCacheFile(filepath.Join(t.TempDir(), "absent.json"), s); err != nil {
		t.Fatalf("missing cache file should be a cold start, got %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("store has %d entries after loading nothing", s.Len())
	}
}

// Version mismatches must be refused loudly — a stale cache written by an
// older simulator would silently pin old numbers.
func TestProfileCacheVersionCheck(t *testing.T) {
	_, err := ReadProfileCache(strings.NewReader(`{"version": 999, "measurements": []}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// Data after the envelope is refused, as the database and checkpoint
// readers refuse it; trailing whitespace is not data.
func TestProfileCacheRejectsTrailingData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := writeRaw(path, []byte(`{"version":1,"measurements":[]}garbage`)); err != nil {
		t.Fatal(err)
	}
	if err := LoadProfileCacheFile(path, profile.NewStore()); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("want trailing-data error, got %v", err)
	}
	if _, err := ReadProfileCache(strings.NewReader("{\"version\":1,\"measurements\":[]}\n \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}
