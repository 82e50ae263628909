package dsl

import "testing"

func TestAnalyze(t *testing.T) {
	rel := zipRel(t)
	p := zipProgram(t, rel)
	st := Analyze(p)
	if st.Statements != 1 || st.Branches != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.GovernedAttrs) != 1 || st.GovernedAttrs[0] != rel.AttrIndex("City") {
		t.Fatalf("governed = %v", st.GovernedAttrs)
	}
	if len(st.DeterminantAttrs) != 1 || st.DeterminantAttrs[0] != rel.AttrIndex("PostalCode") {
		t.Fatalf("determinants = %v", st.DeterminantAttrs)
	}
	if st.MaxGiven != 1 || st.MaxCondWidth != 1 {
		t.Fatalf("widths = %+v", st)
	}
	empty := Analyze(&Program{})
	if empty.Statements != 0 || empty.Branches != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

func TestEquivalentDetectsDifferences(t *testing.T) {
	rel := zipRel(t)
	p := zipProgram(t, rel)
	if !Equivalent(p, p, rel) {
		t.Fatal("program not equivalent to itself")
	}
	// Dropping the Berkeley branch removes the violation on the corrupted
	// row, an observable behavioural difference on this relation.
	other := &Program{Stmts: []Statement{{
		Given:    p.Stmts[0].Given,
		On:       p.Stmts[0].On,
		Branches: p.Stmts[0].Branches[1:],
	}}}
	if Equivalent(p, other, rel) {
		t.Fatal("different programs reported equivalent")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rel := zipRel(t)
	p := zipProgram(t, rel)
	data, err := MarshalJSON(p, rel)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalJSON(data, rel)
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(p, p2, rel) {
		t.Fatal("JSON round trip changed behaviour")
	}
}

func TestJSONErrors(t *testing.T) {
	rel := zipRel(t)
	if _, err := UnmarshalJSON([]byte("{"), rel); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	bad := `{"statements":[{"given":["Nope"],"on":"City","branches":[{"if":[{"attr":"Nope","value":"x"}],"then":"y"}]}]}`
	if _, err := UnmarshalJSON([]byte(bad), rel); err == nil {
		t.Fatal("unknown GIVEN attribute accepted")
	}
	bad2 := `{"statements":[{"given":["PostalCode"],"on":"Nope","branches":[]}]}`
	if _, err := UnmarshalJSON([]byte(bad2), rel); err == nil {
		t.Fatal("unknown ON attribute accepted")
	}
	bad3 := `{"statements":[{"given":["PostalCode"],"on":"City","branches":[{"if":[{"attr":"Nope","value":"x"}],"then":"y"}]}]}`
	if _, err := UnmarshalJSON([]byte(bad3), rel); err == nil {
		t.Fatal("unknown IF attribute accepted")
	}
	// New literal values intern rather than erroring.
	ok := `{"statements":[{"given":["PostalCode"],"on":"City","branches":[{"if":[{"attr":"PostalCode","value":"00000"}],"then":"Nowhere"}]}]}`
	if _, err := UnmarshalJSON([]byte(ok), rel); err != nil {
		t.Fatalf("new literal rejected: %v", err)
	}
}
