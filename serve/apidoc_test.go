package serve

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAPIDocsMatchWire holds docs/api.md's field tables to the wire: the
// top-level members named in the first table under each request and
// response heading are exactly the JSON keys of the matching struct. A
// row names its members in backticks in its first cell, several separated
// by commas; `pipeline.w` names the member pipeline.
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
		var wire []string
		for _, f := range reflect.VisibleFields(c.typ) {
			if name := strings.Split(f.Tag.Get("json"), ",")[0]; name != "" && name != "-" {
				wire = append(wire, name)
			}
		}
		slices.Sort(wire)
		if !slices.Equal(documented, wire) {
			t.Errorf("%s: docs/api.md documents %q, the wire has %q", c.heading, documented, wire)
		}
	}
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
