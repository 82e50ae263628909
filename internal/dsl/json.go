package dsl

import (
	"encoding/json"
	"fmt"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// jsonProgram is the stable on-disk JSON encoding of a Program: names and
// value strings rather than codes, so a serialized program is portable
// across re-encoded relations with the same schema.
type jsonProgram struct {
	Statements []jsonStatement `json:"statements"`
}

type jsonStatement struct {
	Given    []string     `json:"given"`
	On       string       `json:"on"`
	Branches []jsonBranch `json:"branches"`
}

type jsonBranch struct {
	If   []jsonPred `json:"if"`
	Then string     `json:"then"`
}

type jsonPred struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// MarshalJSON encodes p using rel's attribute names and value strings.
func MarshalJSON(p *Program, rel *dataset.Relation) ([]byte, error) {
	out := jsonProgram{Statements: make([]jsonStatement, 0, len(p.Stmts))}
	for _, s := range p.Stmts {
		js := jsonStatement{On: rel.Attr(s.On)}
		for _, g := range s.Given {
			js.Given = append(js.Given, rel.Attr(g))
		}
		for _, b := range s.Branches {
			jb := jsonBranch{Then: rel.Dict(s.On).Value(b.Value)}
			for _, pr := range b.Cond {
				jb.If = append(jb.If, jsonPred{Attr: rel.Attr(pr.Attr), Value: rel.Dict(pr.Attr).Value(pr.Value)})
			}
			js.Branches = append(js.Branches, jb)
		}
		out.Statements = append(out.Statements, js)
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON decodes a program against rel, interning literal values not
// yet present in the dictionaries, and validates the result.
func UnmarshalJSON(data []byte, rel *dataset.Relation) (*Program, error) {
	var in jsonProgram
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("dsl: decoding program JSON: %w", err)
	}
	p := &Program{}
	for si, js := range in.Statements {
		on := rel.AttrIndex(js.On)
		if on < 0 {
			return nil, fmt.Errorf("dsl: statement %d: unknown ON attribute %q", si, js.On)
		}
		s := Statement{On: on}
		for _, g := range js.Given {
			gi := rel.AttrIndex(g)
			if gi < 0 {
				return nil, fmt.Errorf("dsl: statement %d: unknown GIVEN attribute %q", si, g)
			}
			s.Given = append(s.Given, gi)
		}
		for _, jb := range js.Branches {
			b := Branch{Value: rel.Intern(on, jb.Then)}
			for _, jp := range jb.If {
				a := rel.AttrIndex(jp.Attr)
				if a < 0 {
					return nil, fmt.Errorf("dsl: statement %d: unknown IF attribute %q", si, jp.Attr)
				}
				b.Cond = append(b.Cond, Pred{Attr: a, Value: rel.Intern(a, jp.Value)})
			}
			s.Branches = append(s.Branches, b)
		}
		p.Stmts = append(p.Stmts, s)
	}
	if err := p.Validate(rel); err != nil {
		return nil, err
	}
	return p, nil
}
