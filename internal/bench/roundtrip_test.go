package bench

import (
	"bytes"
	"testing"

	"compact/internal/blif"
)

// TestBLIFRoundTripAllBenchmarks serializes every benchmark circuit as
// BLIF (what cmd/benchgen emits), reparses it, and checks functional
// equivalence on random vectors — an integration test of the generators,
// the writer and the parser together.
func TestBLIFRoundTripAllBenchmarks(t *testing.T) {
	for _, g := range All() {
		nw := g.Build()
		var buf bytes.Buffer
		if err := blif.Write(&buf, nw); err != nil {
			t.Errorf("%s: write: %v", g.Name, err)
			continue
		}
		nw2, err := blif.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Errorf("%s: reparse: %v", g.Name, err)
			continue
		}
		if nw2.NumInputs() != nw.NumInputs() || nw2.NumOutputs() != nw.NumOutputs() {
			t.Errorf("%s: I/O changed: %d/%d -> %d/%d", g.Name,
				nw.NumInputs(), nw.NumOutputs(), nw2.NumInputs(), nw2.NumOutputs())
			continue
		}
		// Input order may differ after reparse; map by name.
		perm := make([]int, nw.NumInputs())
		for i, name := range nw.InputNames() {
			j := nw2.InputIndex(name)
			if j < 0 {
				t.Errorf("%s: input %q lost", g.Name, name)
				continue
			}
			perm[i] = j
		}
		operm := make([]int, nw.NumOutputs())
		for i, name := range nw.OutputNames {
			j := nw2.OutputIndex(name)
			if j < 0 {
				t.Errorf("%s: output %q lost", g.Name, name)
				continue
			}
			operm[i] = j
		}
		in := make([]bool, nw.NumInputs())
		in2 := make([]bool, nw.NumInputs())
		state := uint64(1)
		for trial := 0; trial < 40; trial++ {
			for i := range in {
				state = state*6364136223846793005 + 1442695040888963407
				in[i] = state>>33&1 != 0
				in2[perm[i]] = in[i]
			}
			want := nw.Eval(in)
			got := nw2.Eval(in2)
			for o := range want {
				if want[o] != got[operm[o]] {
					t.Fatalf("%s: output %s differs after round trip", g.Name, nw.OutputNames[o])
				}
			}
		}
	}
}

// TestBLIFParsePinned pins the gate count and Fingerprint of every
// benchmark circuit after a BLIF round trip. The parser builds through
// logic.Builder, whose structural hashing decides which gates are shared,
// so a change to the hash key that merged or split gates moves the count
// (and usually the fingerprint).
func TestBLIFParsePinned(t *testing.T) {
	want := map[string]struct {
		gates       int
		fingerprint string
	}{
		"c432":      {443, "sha256:ada091348850d32ee64d7c8a6153a27806ae23bcb7fc5b9f4ac4931ae6c89118"},
		"c499":      {803, "sha256:3801e1f21c0b394eb8d6bbb76ab13268627f2c38dd1de9aed1cfe56cf60b0919"},
		"c880":      {591, "sha256:274b11b75ad2365cccfcf5062c165362274d387d1346ee822977bde025b9f00e"},
		"c1355":     {803, "sha256:3801e1f21c0b394eb8d6bbb76ab13268627f2c38dd1de9aed1cfe56cf60b0919"},
		"c1908":     {390, "sha256:bc6f9175648fbfc79714dbcaf7b8dbe69035e4b241444de141854a2f52a57ab5"},
		"c2670":     {2148, "sha256:31406c05890cc47110d8674687b3ab6026f7337b104d4083fadb7255846fe5b0"},
		"c3540":     {471, "sha256:0a20ce263624a27e0eb087081f124a3acdcbb7d21d5e64fd242bb297a555167a"},
		"c5315":     {1671, "sha256:14e3b9e99210e34f0dacd2f493da8e52d912c64f4d869d2c3b30333c3df63cf0"},
		"c7552":     {2458, "sha256:8cc4bbb6bddb9ec2fa887af4fc59b153e5411774b21985a902b7428a20af0a7b"},
		"arbiter":   {1539, "sha256:16dfadccd2109ea8722d8421f997d254ae194c4a9ff3db12dcd2ff1594283ff5"},
		"cavlc":     {190, "sha256:fe5f0b906c85108e74e302462352045e9deeffc4057569bbbacbcc5bf57498c6"},
		"ctrl":      {138, "sha256:b4335e10447298aa534acc0c243718dfb95c265d87a0c0f76aa0420f250f7d6a"},
		"dec":       {1054, "sha256:9478f42d7a1472253f3883f03cb50f0e4fbeedf8af0d6d848ddf261b7842a088"},
		"i2c":       {1063, "sha256:5484c792e9d07cdc551a245c196a633e7331d9ce2323b3c2fcd5e09a1eda7125"},
		"int2float": {293, "sha256:c2131275c4788047cfee6b200e499458bb4cf881b4a7569f528a0d638433a7fb"},
		"priority":  {1289, "sha256:4c455033b12ef090da6f4658840676453504b91cd5c0d41d26e4c4a6a3854550"},
		"router":    {459, "sha256:ffd03f1b6a4a718796ffcd6ebd4d007e0c4cca6f7d49a4c7643fdd40b76e5857"},
	}
	if len(All()) != len(want) {
		t.Fatalf("%d benchmarks, %d pinned", len(All()), len(want))
	}
	for _, g := range All() {
		var buf bytes.Buffer
		if err := blif.Write(&buf, g.Build()); err != nil {
			t.Fatalf("%s: write: %v", g.Name, err)
		}
		nw, err := blif.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: parse: %v", g.Name, err)
		}
		w, ok := want[g.Name]
		if !ok {
			t.Fatalf("%s: not pinned", g.Name)
		}
		if got := nw.NumGates(); got != w.gates {
			t.Errorf("%s: %d gates, want %d", g.Name, got, w.gates)
		}
		if got := nw.Fingerprint(); got != w.fingerprint {
			t.Errorf("%s: fingerprint %s, want %s", g.Name, got, w.fingerprint)
		}
	}
}
