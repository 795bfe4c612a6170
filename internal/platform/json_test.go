package platform

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// decodeOracle is the reference decode UnmarshalJSON must reproduce:
// encoding/json into the wire struct, then Validate.
func decodeOracle(data []byte) (*Platform, error) {
	var jp jsonPlatform
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, err
	}
	pl := &Platform{Speed: jp.Speed, FailProb: jp.FailProb, B: jp.B, BIn: jp.BIn, BOut: jp.BOut}
	return pl, pl.Validate()
}

// sameBits reports whether a and b hold bitwise-identical values (so -0
// differs from +0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle fails t unless UnmarshalJSON and the oracle both
// reject data, or both accept it with bitwise-equal, exactly sized fields.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeOracle(data)
	var got Platform
	gotErr := got.UnmarshalJSON(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q:\n encoding/json error: %v\n UnmarshalJSON error: %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	vecs := []struct {
		name      string
		got, want []float64
	}{
		{"speed", got.Speed, want.Speed},
		{"failProb", got.FailProb, want.FailProb},
		{"bIn", got.BIn, want.BIn},
		{"bOut", got.BOut, want.BOut},
	}
	for u := range want.B {
		vecs = append(vecs, struct {
			name      string
			got, want []float64
		}{"b row", got.B[u], want.B[u]})
	}
	for _, v := range vecs {
		if !sameBits(v.got, v.want) {
			t.Fatalf("%q: %s = %v, encoding/json decodes %v", data, v.name, v.got, v.want)
		}
		if cap(v.got) != len(v.got) {
			t.Fatalf("%q: %s has capacity %d for length %d", data, v.name, cap(v.got), len(v.got))
		}
	}
	if len(got.B) != len(want.B) || cap(got.B) != len(got.B) {
		t.Fatalf("%q: b has %d rows (capacity %d), encoding/json decodes %d", data, len(got.B), cap(got.B), len(want.B))
	}
}

// platformJSONSeeds are hand-written documents at the edges of the
// encoding/json contract, each on a valid two-processor platform unless
// noted.
var platformJSONSeeds = []string{
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	// Case-folded and escaped keys; U+017F (long s) folds to "s" and the
	// Kelvin sign U+212A to "k", which no field holds.
	`{"SPEED":[1,2],"FailPROB":[0.1,0.2],"B":[[0,1],[1,0]],"BIN":[1,1],"bout":[1,1]}`,
	`{"\u0073peed":[1,2],"fail\u0050rob":[0.1,0.2],"\u0062":[[0,1],[1,0]],"b\u0049n":[1,1],"bOut":[1,1]}`,
	`{"ſpeed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"\u017Fpeed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1],"\u212a":[1]}`,
	`{"\ud800speed":[1,2],"speed":[3,4],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1],"\ud83d\ude00":0}`,
	`{"sp\u00e9ed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	// Repeated keys: the last wins, but a null element reads through to
	// what the earlier member left in the reused backing array.
	`{"speed":[9,9,9],"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[5,7],"speed":[null,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2,3],"speed":[4],"speed":[null,null],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.5,0.5],"failProb":[],"failProb":[null,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[7,1],[1,7]],"b":[[null,3],[2,null]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[7,1,5],[1,7]],"b":[[0]],"b":[[null,3],[2,null]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"b":[null,[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":null,"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	// null values and elements.
	`{"speed":[1,2],"failProb":[null,0.2],"b":[[null,1],[1,null]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":null,"bOut":[1,1]}`,
	`null`,
	`{}`,
	// Unknown keys with nested values, which are validated but never
	// converted.
	`{"speed":[1,2],"extra":{"a":[1,{"b":null}],"c":"x\n\u00e9\/","d":[true,false,-0.5e+3]},"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"x":[1e400],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"x":[1,],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"x":"\q","failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	"{\"speed\":[1,2],\"x\":\"raw\xff\xfebytes\",\"failProb\":[0.1,0.2],\"b\":[[0,1],[1,0]],\"bIn\":[1,1],\"bOut\":[1,1]}",
	"{\"speed\":[1,2],\"x\":\"tab\there\",\"failProb\":[0.1,0.2],\"b\":[[0,1],[1,0]],\"bIn\":[1,1],\"bOut\":[1,1]}",
	// Number grammar and range.
	`{"speed":[1,2],"failProb":[-0,0.2],"b":[[-0,1],[1,-0.0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1e400,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[1e-400,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[4.9e-324,1E+2],"bOut":[1.7976931348623157e308,1]}`,
	`{"speed":[01,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1.,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[.5,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[+1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1e,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2,],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1],}`,
	`{"speed":["1",2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[0,1],"bIn":[1,1],"bOut":[1,1]}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":{}}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[nul,1]}`,
	// Whitespace and what may follow the object.
	" \t\r\n{ \"speed\" : [ 1 , 2 ] , \"failProb\":[0.1,0.2],\"b\":[[0,1],[1,0]],\"bIn\":[1,1],\"bOut\":[1,1] } \n",
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]}{}`,
	`{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]`,
	`[1,2]`,
	``,
}

// deepSeed nests an unknown member's value depth arrays deep; with the
// top-level object that is depth+1 levels against encoding/json's 10000.
func deepSeed(depth int) string {
	return `{"speed":[1],"failProb":[0],"b":[[0]],"bIn":[1],"bOut":[1],"x":` +
		strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
}

func FuzzPlatformJSON(f *testing.F) {
	fig5Speeds, fig5FPs := []float64{1}, []float64{0.1}
	for i := 0; i < 10; i++ {
		fig5Speeds, fig5FPs = append(fig5Speeds, 100), append(fig5FPs, 0.8)
	}
	e14Speeds, e14FPs := make([]float64, 8), make([]float64, 8)
	for i := range e14Speeds {
		e14Speeds[i], e14FPs[i] = 2, 0.3
	}
	for _, pl := range []*Platform{
		mustPlatform(NewCommHomogeneous(fig5Speeds, fig5FPs, 1)),
		mustPlatform(NewCommHomogeneous(e14Speeds, e14FPs, 2)),
	} {
		doc, err := json.Marshal(pl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, seed := range platformJSONSeeds {
		f.Add([]byte(seed))
	}
	f.Add([]byte(deepSeed(9999)))
	f.Add([]byte(deepSeed(10000)))
	f.Fuzz(checkAgainstOracle)
}

func mustPlatform(pl *Platform, err error) *Platform {
	if err != nil {
		panic(err)
	}
	return pl
}
