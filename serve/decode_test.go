package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// checkRequestDecode fails t unless the request decoders and
// encoding/json, the oracle, give data the same verdict as a SolveSpec
// and as a BatchRequest, and equal values where they accept it.
func checkRequestDecode(t *testing.T, data []byte) {
	t.Helper()
	var wantSpec, gotSpec SolveSpec
	wantErr, gotErr := json.Unmarshal(data, &wantSpec), decodeSolveSpec(data, &gotSpec)
	sameDecode(t, "SolveSpec", data, wantErr, gotErr, wantSpec, gotSpec)
	var wantBatch, gotBatch BatchRequest
	wantErr, gotErr = json.Unmarshal(data, &wantBatch), decodeBatchRequest(data, &gotBatch)
	sameDecode(t, "BatchRequest", data, wantErr, gotErr, wantBatch, gotBatch)
}

func sameDecode[T any](t *testing.T, what string, data []byte, wantErr, gotErr error, want, got T) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s %.200q:\n encoding/json error: %v\n decoder error: %v", what, data, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %.200q:\n decoded %+v\n encoding/json decodes %+v", what, data, got, want)
	}
}

// deepRequest nests an unknown member's value depth arrays deep inside
// doc's innermost object, which sits inside open containers; the nesting
// limit is encoding/json's 10000 levels.
func deepRequest(open string, depth int) string {
	return open + `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + "}" +
		strings.Repeat("]}", strings.Count(open, "["))
}

// requestJSONSeeds are hand-written documents at the edges of the
// encoding/json contract; the two-processor instance is valid.
var requestJSONSeeds = []string{
	`{"problems":[{"pipeline":{"w":[1],"delta":[1,1]},"platform":{"speed":[1,2],"failProb":[0.1,0.2],"b":[[0,1],[1,0]],"bIn":[1,1],"bOut":[1,1]},"maxLatency":10},` +
		`{"pipeline":{"w":[2,3],"delta":[1,1,1]},"platform":{"speed":[1],"failProb":[0],"b":[[0]],"bIn":[1],"bOut":[1]},"objective":"minLatency","maxFailProb":0.5}]}`,
	// Every scalar field; case-folded and escaped keys (U+017F, the long
	// s, folds to "s" and the Kelvin sign U+212A to "k").
	`{"objective":"minLatency","maxLatency":1.5,"maxFailProb":0.25,"deadlineMillis":100,"workers":2,"exactBudget":1e6,"forceHeuristic":true,"seed":-7}`,
	`{"OBJECTIVE":"x","MaxLatency":2,"DEADLINEMILLIS":3,"wor\u212aers":4,"ſeed":5,"\u0073eed":6,"FORCEheuristic":false}`,
	`{"PIPELINE":{"W":[1],"Delta":[1,1]},"pLaTfOrM":{"SPEED":[1],"failprob":[0],"B":[[0]],"bin":[1],"BOUT":[1]}}`,
	// Repeated keys: the last wins; a repeated "problems" decodes over
	// the elements the earlier one left, and [] or null drops them.
	`{"objective":"a","objective":"b","seed":1,"seed":2}`,
	`{"pipeline":{"w":[1],"delta":[1,1]},"pipeline":null}`,
	`{"pipeline":{"w":[1],"delta":[1,1]},"pipeline":{"w":[2,3],"delta":[1,1,1]}}`,
	`{"problems":[{"seed":1,"objective":"a"},{"seed":2},{"seed":3}],"problems":[{"objective":"b"}]}`,
	`{"problems":[{"seed":1},{"seed":2},{"seed":3}],"problems":[{}],"problems":[null,null,{"workers":1}]}`,
	`{"problems":[{"seed":1},{"seed":2}],"problems":[],"problems":[null,null]}`,
	`{"problems":[{"seed":1},{"seed":2}],"problems":null,"problems":[null]}`,
	`{"problems":[{"maxLatency":5}],"problems":[{"maxLatency":null,"pipeline":{"w":[1],"delta":[1,1]}}]}`,
	// null: scalars keep their value, pointers and slices become nil, and
	// a top-level null is a zero request.
	`{"objective":null,"maxLatency":null,"deadlineMillis":null,"forceHeuristic":null,"pipeline":null,"platform":null}`,
	`{"problems":null}`,
	`{"problems":[null]}`,
	`null`,
	`{}`,
	`{"problems":[]}`,
	// Integers: fractions, exponents and overflow are errors.
	`{"seed":1.0}`,
	`{"seed":1e3}`,
	`{"seed":-0}`,
	`{"seed":9223372036854775807}`,
	`{"seed":9223372036854775808}`,
	`{"seed":-9223372036854775808}`,
	`{"seed":-9223372036854775809}`,
	`{"workers":1.5}`,
	`{"deadlineMillis":18446744073710}`,
	`{"deadlineMillis":01}`,
	// Floats.
	`{"maxLatency":1e400}`,
	`{"maxLatency":1e-400,"exactBudget":-0}`,
	`{"maxFailProb":-}`,
	// Strings: escapes, unpaired surrogates and bytes that are not UTF-8.
	`{"objective":"min\u004catency\n\/\u00e9"}`,
	`{"objective":"\ud800x\udc00\ud83d\ude00"}`,
	"{\"objective\":\"raw\xff\xfe\xed\xa0\x80bytes\"}",
	"{\"objective\":\"caf\xc3\xa9\"}",
	"{\"objective\":\"tab\there\"}",
	`{"objective":"\q"}`,
	// Values of the wrong type.
	`{"objective":5}`,
	`{"maxLatency":"5"}`,
	`{"forceHeuristic":1}`,
	`{"seed":true}`,
	`{"pipeline":5}`,
	`{"pipeline":[]}`,
	`{"platform":"x"}`,
	`{"problems":{}}`,
	`{"problems":[5]}`,
	`{"problems":[[]]}`,
	`[]`,
	`"x"`,
	`5`,
	// Unknown members, validated but not converted; invalid instances.
	`{"extra":{"a":[1,{"b":null}],"c":"x\n\u00e9","d":[true,false,-0.5e+3]},"seed":3}`,
	`{"extra":[1,],"seed":3}`,
	`{"pipeline":{"w":[1],"delta":[1]}}`,
	`{"platform":{"speed":[1],"failProb":[2],"b":[[0]],"bIn":[1],"bOut":[1]}}`,
	// What may follow the top-level value.
	`{} `,
	`{}{}`,
	`null x`,
	`{"seed":1`,
	``,
}

func FuzzRequestJSON(f *testing.F) {
	// A field added to SolveSpec must be added to its decoder too.
	var tags []string
	for _, field := range reflect.VisibleFields(reflect.TypeOf(SolveSpec{})) {
		tags = append(tags, strings.Split(field.Tag.Get("json"), ",")[0])
	}
	if !reflect.DeepEqual(tags, solveSpecFields) {
		f.Fatalf("SolveSpec's JSON keys %q, decoder's %q", tags, solveSpecFields)
	}
	p, pl := workload.Fig5()
	fig5, err := json.Marshal(SolveSpec{Pipeline: p, Platform: pl, Objective: "minFailureProb", MaxLatency: 22})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fig5)
	for _, seed := range requestJSONSeeds {
		f.Add([]byte(seed))
	}
	// The limit sits at 10000 levels for the top-level object and for a
	// batch's problem.
	for _, depth := range []int{9999, 10000} {
		f.Add([]byte(deepRequest("", depth)))
		f.Add([]byte(deepRequest(`{"problems":[`, depth-2)))
	}
	f.Fuzz(checkRequestDecode)
}
