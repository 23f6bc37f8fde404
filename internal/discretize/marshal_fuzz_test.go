package discretize

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDiscretizeUnmarshal feeds arbitrary bytes to Unmarshal, the decoder
// of the discretizer state a checkpoint file carries. It must not panic;
// a state it accepts must label any float, ±Inf and NaN included, without
// panicking; and Marshal must round-trip it: the restored state labels
// every probe alike and marshals to the same bytes.
func FuzzDiscretizeUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"edges":[1,2],"labels":["lo","mid","hi"],"lo":0,"hi":3}`,
		`{"labels":["only"]}`,
		`{"edges":[1]}`,
		`{"zero":true,"zero_eps":0.5,"spike":true,"spike_value":4}`,
		`{"zero":true,"zero_eps":-1,"zero_label":"","spike":true,"spike_value":0,"edges":[-1e308,0,1e308],"labels":["a","b","c","d"]}`,
		`{"edges":[2,1],"labels":["a","b","c"]}`,
		`{"edges":[1],"labels":["a"]}`,
		`{"edges":[1e999]}`,
		`[`,
	} {
		f.Add([]byte(seed), 0.5)
	}
	f.Fuzz(func(t *testing.T, data []byte, v float64) {
		d, err := Unmarshal(data)
		if err != nil {
			return
		}
		probes := []float64{v, math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1),
			d.zeroEps, -d.zeroEps, d.spikeValue, d.lo, d.hi}
		for _, e := range d.edges {
			probes = append(probes, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		for _, p := range probes {
			d.Label(p)
			d.BinIndex(p)
		}
		enc, err := d.Marshal()
		if err != nil {
			t.Fatalf("marshal of an accepted state: %v", err)
		}
		back, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("unmarshal of a marshalled state %s: %v", enc, err)
		}
		for _, p := range probes {
			if got, want := back.Label(p), d.Label(p); got != want {
				t.Fatalf("Label(%v) = %q after the round trip, want %q (state %s)", p, got, want, enc)
			}
			if got, want := back.BinIndex(p), d.BinIndex(p); got != want {
				t.Fatalf("BinIndex(%v) = %d after the round trip, want %d (state %s)", p, got, want, enc)
			}
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("marshal is not stable across a round trip:\n%s\n%s", enc, again)
		}
	})
}
