package pipeline

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// decodeOracle is the reference decode UnmarshalJSON must reproduce:
// encoding/json into the wire struct, then Validate.
func decodeOracle(data []byte) (*Pipeline, error) {
	var jp jsonPipeline
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, err
	}
	p := &Pipeline{W: jp.W, Delta: jp.Delta}
	return p, p.Validate()
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
// reject data, or both accept it with bitwise-equal, exactly sized fields
// and a prefix table that matches W.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeOracle(data)
	var got Pipeline
	gotErr := got.UnmarshalJSON(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q:\n encoding/json error: %v\n UnmarshalJSON error: %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !sameBits(got.W, want.W) || !sameBits(got.Delta, want.Delta) {
		t.Fatalf("%q: decoded w=%v delta=%v, encoding/json decodes w=%v delta=%v", data, got.W, got.Delta, want.W, want.Delta)
	}
	if cap(got.W) != len(got.W) || cap(got.Delta) != len(got.Delta) {
		t.Fatalf("%q: slices not exactly sized (w %d/%d, delta %d/%d)", data, len(got.W), cap(got.W), len(got.Delta), cap(got.Delta))
	}
	if w := got.Work(0, len(got.W)-1); math.Float64bits(w) != math.Float64bits(want.Work(0, len(want.W)-1)) {
		t.Fatalf("%q: total work %v from the prefix table, want %v", data, w, want.Work(0, len(want.W)-1))
	}
}

// pipelineJSONSeeds are hand-written documents at the edges of the
// encoding/json contract, each on a valid two-stage pipeline unless noted.
var pipelineJSONSeeds = []string{
	// Figure 5 and the E14 replication ablation.
	`{"w":[1,100],"delta":[10,1,0]}`,
	`{"w":[5,5],"delta":[4,6,4]}`,
	// Case-folded and escaped keys; U+017F (long s) and the Kelvin sign
	// U+212A fold to "s" and "k", which no field holds.
	`{"W":[1,2],"DELTA":[1,2,3]}`,
	`{"\u0077":[1,2],"d\u0045lta":[1,2,3],"\u017f":[1],"\u212a":[2],"ſ":3}`,
	`{"w":[1,2],"\ud800delta":[9],"delta":[1,2,3],"\ud83d\ude00":0}`,
	// Repeated keys: the last wins, but a null element reads through to
	// what the earlier member left in the reused backing array.
	`{"w":[9,9,9],"w":[1,2],"delta":[1,2,3]}`,
	`{"w":[5,7],"w":[null,2],"delta":[1,2,3]}`,
	`{"w":[1,2,3],"w":[4],"w":[null,null],"delta":[1,2,3]}`,
	`{"w":[1,2],"w":[],"w":[null,2],"delta":[1,2,3]}`,
	`{"w":null,"w":[1,2],"delta":[null,2,null]}`,
	// null values.
	`{"w":[1,2],"delta":null}`,
	`null`,
	`{}`,
	// Unknown keys with nested values, validated but never converted.
	`{"w":[1,2],"meta":{"a":[1,{"b":null}],"c":"x\n\u00e9\/","d":[true,false,-0.5e+3]},"delta":[1,2,3]}`,
	`{"w":[1,2],"x":[1e400],"delta":[1,2,3]}`,
	`{"w":[1,2],"x":[1,],"delta":[1,2,3]}`,
	`{"w":[1,2],"x":{"a":1,},"delta":[1,2,3]}`,
	`{"w":[1,2],"x":"\q","delta":[1,2,3]}`,
	"{\"w\":[1,2],\"x\":\"raw\xff\xfe\",\"delta\":[1,2,3]}",
	// Number grammar and range.
	`{"w":[-0,2],"delta":[-0.0,2,3]}`,
	`{"w":[1e400,2],"delta":[1,2,3]}`,
	`{"w":[-1e400,2],"delta":[1,2,3]}`,
	`{"w":[1e-400,2],"delta":[1,2,3]}`,
	`{"w":[4.9e-324,1E+2],"delta":[1.7976931348623157e308,2e-0,3.25E1]}`,
	`{"w":[01,2],"delta":[1,2,3]}`,
	`{"w":[-,2],"delta":[1,2,3]}`,
	`{"w":[1.e5,2],"delta":[1,2,3]}`,
	`{"w":[1,2,],"delta":[1,2,3]}`,
	`{"w":[1,2],"delta":[1,2,3],}`,
	`{"w":[true,2],"delta":[1,2,3]}`,
	`{"w":[[1],2],"delta":[1,2,3]}`,
	`{"w":3,"delta":[1,2,3]}`,
	// Whitespace and what may follow the object.
	" \t\r\n{ \"w\" : [ 1 , 2 ] , \"delta\" : [1,2,3] } \n",
	`{"w":[1,2],"delta":[1,2,3]}{}`,
	`{"w":[1,2],"delta":[1,2,3]`,
	`{"w":[1,2] "delta":[1,2,3]}`,
	`{"w" [1,2],"delta":[1,2,3]}`,
	`[1,2]`,
	``,
}

func FuzzPipelineJSON(f *testing.F) {
	for _, seed := range pipelineJSONSeeds {
		f.Add([]byte(seed))
	}
	deep := func(depth int) []byte {
		return []byte(`{"w":[1],"delta":[1,2],"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
	}
	f.Add(deep(9999))
	f.Add(deep(10000))
	f.Fuzz(checkAgainstOracle)
}
