package serve

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAPIDocsMatchWire holds docs/api.md to the wire: the top-level
// members named in the first table under each request and response
// heading are exactly the JSON keys of the matching struct, and so are
// the top-level keys of the JSON example under "GET /v1/stats" for
// Stats. A row names its members in backticks in its first cell, several
// separated by commas; `pipeline.w` names the member pipeline.
func TestAPIDocsMatchWire(t *testing.T) {
	doc, err := os.ReadFile("../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	for _, c := range []struct {
		heading string
		typ     reflect.Type
	}{
		{"SolveSpec", reflect.TypeOf(SolveSpec{})},
		{"SolveResult", reflect.TypeOf(SolveResult{})},
		{"RemapSpec", reflect.TypeOf(RemapSpec{})},
		{"RemapEvent", reflect.TypeOf(RemapEvent{})},
	} {
		documented := docTableMembers(lines, c.heading)
		if documented == nil {
			t.Errorf("docs/api.md has no field table under a %q heading", c.heading)
			continue
		}
		if wire := wireMembers(c.typ); !slices.Equal(documented, wire) {
			t.Errorf("%s: docs/api.md documents %q, the wire has %q", c.heading, documented, wire)
		}
	}

	example, err := docJSONExampleKeys(lines, "GET /v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats example: %v", err)
	}
	if wire := wireMembers(reflect.TypeOf(Stats{})); !slices.Equal(example, wire) {
		t.Errorf("GET /v1/stats: docs/api.md's example has keys %q, the wire has %q", example, wire)
	}
}

// wireMembers returns the sorted JSON keys of typ's fields.
func wireMembers(typ reflect.Type) []string {
	var wire []string
	for _, f := range reflect.VisibleFields(typ) {
		if name := strings.Split(f.Tag.Get("json"), ",")[0]; name != "" && name != "-" {
			wire = append(wire, name)
		}
	}
	slices.Sort(wire)
	return wire
}

// docJSONExampleKeys returns the sorted top-level keys of the first
// ```json block after the markdown heading that reads exactly heading,
// before the next heading.
func docJSONExampleKeys(lines []string, heading string) ([]string, error) {
	i := slices.IndexFunc(lines, func(l string) bool {
		return strings.HasPrefix(l, "#") && strings.TrimSpace(strings.TrimLeft(l, "#")) == heading
	})
	if i < 0 {
		return nil, fmt.Errorf("no %q heading", heading)
	}
	var block []string
	inBlock := false
	for _, l := range lines[i+1:] {
		if inBlock {
			if strings.HasPrefix(l, "```") {
				var doc map[string]json.RawMessage
				if err := json.Unmarshal([]byte(strings.Join(block, "\n")), &doc); err != nil {
					return nil, err
				}
				keys := slices.Collect(maps.Keys(doc))
				slices.Sort(keys)
				return keys, nil
			}
			block = append(block, l)
			continue
		}
		if strings.HasPrefix(l, "#") {
			break
		}
		inBlock = l == "```json"
	}
	return nil, fmt.Errorf("no complete json block under %q", heading)
}

var docMemberName = regexp.MustCompile("`([^`]+)`")

// docTableMembers returns the sorted, distinct top-level members named by
// the first table after the markdown heading that reads exactly heading,
// or nil when there is no such table before the next heading.
func docTableMembers(lines []string, heading string) []string {
	i := slices.IndexFunc(lines, func(l string) bool {
		return strings.HasPrefix(l, "#") && strings.TrimSpace(strings.TrimLeft(l, "#")) == heading
	})
	if i < 0 {
		return nil
	}
	var members []string
	inTable := false
	for _, l := range lines[i+1:] {
		if strings.HasPrefix(l, "#") {
			break
		}
		if !strings.HasPrefix(l, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first := strings.SplitN(strings.TrimPrefix(l, "|"), "|", 2)[0]
		for _, m := range docMemberName.FindAllStringSubmatch(first, -1) {
			members = append(members, strings.SplitN(m[1], ".", 2)[0])
		}
	}
	if !inTable {
		return nil
	}
	slices.Sort(members)
	return slices.Compact(members)
}
