package serve

import (
	"encoding/json"

	"repro/internal/jsonread"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// The request decoders read a body in one pass with internal/jsonread,
// which accepts and rejects exactly what encoding/json does and decodes
// equal values (FuzzRequestJSON holds them to it), without encoding/json's
// separate validation scan and its second scan to find each embedded
// Pipeline's and Platform's end.

// solveSpecFields lists SolveSpec's JSON keys in SolveSpec.decode's field
// order.
var solveSpecFields = []string{"pipeline", "platform", "objective", "maxLatency", "maxFailProb", "deadlineMillis"}

// batchRequestFields lists BatchRequest's JSON keys.
var batchRequestFields = []string{"problems"}

// decodeSolveSpec decodes a /v1/solve body into spec.
func decodeSolveSpec(body []byte, spec *SolveSpec) error {
	d := jsonread.NewDecoder(body)
	if err := spec.decode(d); err != nil {
		return err
	}
	return d.End()
}

// decodeBatchRequest decodes a /v1/solve/batch body into req. A repeated
// "problems" member decodes over the elements the earlier one left, as
// encoding/json does.
func decodeBatchRequest(body []byte, req *BatchRequest) error {
	d := jsonread.NewDecoder(body)
	err := d.Object(batchRequestFields, func(int) (err error) {
		req.Problems, err = jsonread.Array(d, req.Problems, func(spec *SolveSpec) error {
			return spec.decode(d)
		})
		return err
	})
	if err != nil {
		return err
	}
	return d.End()
}

// decodeRemapSpec decodes a /v1/remap/stream body into spec with
// encoding/json: RemapSpec's start mapping and fault schedule have no
// jsonread readers, and a stream decodes one body for all its events.
func decodeRemapSpec(body []byte, spec *RemapSpec) error {
	return json.Unmarshal(body, spec)
}

// decode reads the object (or null, which leaves spec as it was) at d's
// position over spec's current fields. A pipeline or platform decodes
// and validates in the same pass; null sets it to nil.
func (spec *SolveSpec) decode(d *jsonread.Decoder) error {
	return d.Object(solveSpecFields, func(field int) (err error) {
		switch field {
		case 0:
			spec.Pipeline = nil
			if !d.Null() {
				spec.Pipeline = new(pipeline.Pipeline)
				err = spec.Pipeline.DecodeJSON(d)
			}
		case 1:
			spec.Platform = nil
			if !d.Null() {
				spec.Platform = new(platform.Platform)
				err = spec.Platform.DecodeJSON(d)
			}
		case 2:
			spec.Objective, err = d.String(spec.Objective)
		case 3:
			spec.MaxLatency, err = d.Float(spec.MaxLatency)
		case 4:
			spec.MaxFailProb, err = d.Float(spec.MaxFailProb)
		case 5:
			spec.DeadlineMillis, err = d.Int(spec.DeadlineMillis)
		}
		return err
	})
}
