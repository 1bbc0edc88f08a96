package profilefmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rppm/internal/profiler"
	"rppm/internal/workload"
)

// goldenProfileHashes pins the .rpp bytes: the sha256 of Encode(p,
// profiler.Options{}) for the full profile of workload.ByName(name).Build(1,
// 0.1) and for its CompactCopy. They fix the wire format and, through it,
// every histogram, window and branch statistic the profiler records, so a
// change to the in-memory form that leaks onto the wire fails here.
var goldenProfileHashes = []struct {
	name, full, compact string
}{
	{"canneal",
		"20772c531efcd7a5c9fb8f530cd1891a305bfeea7a07536fe71775342389bf73",
		"6cf4ae2f8bfa9c1a963faef20e9e9851028b2bf7a339fa48ea755bcc6c135d39"},
	{"kmeans",
		"0b6c1632e87d47671f4a30f7e60f7f85fc75f6a0d3d9913ae75bb129a0d1e9f8",
		"c7dc9b30016df18d6c63be235ab8cbb52cc3f4fb9c80559de3cdca0ad1da3756"},
	{"fluidanimate",
		"aa91b235107fde6c91fc6e269c92821b74b9f58462b1875530ba8a22c944c9e1",
		"facc70f332154361f43b96df009aad2e36dc19e8cd2c40b2322fd7cefc8cff31"},
	{"swaptions",
		"4082caa37fe4957c2720a220fec091117619db1c31197538584155179f4b2843",
		"21283320b1b0935b52e8f2d039bf52d0153eee70ae0eebcb1750e02e4bd9f628"},
}

// TestProfileBytesPinned checks the frozen hashes above, and that decoding
// each file and encoding it again reproduces its bytes.
func TestProfileBytesPinned(t *testing.T) {
	for _, g := range goldenProfileHashes {
		t.Run(g.name, func(t *testing.T) {
			bm, err := workload.ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := profiler.Run(bm.Build(1, 0.1), profiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				form, want string
				p          *profiler.Profile
			}{{"full", g.full, p}, {"compact", g.compact, p.CompactCopy()}} {
				data, err := Encode(c.p, profiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("%s profile sha256 %s, pinned %s", c.form, got, c.want)
				}
				dec, _, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				again, err := Encode(dec, profiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, data) {
					t.Errorf("%s profile: decode then encode changed the bytes", c.form)
				}
			}
		})
	}
}
