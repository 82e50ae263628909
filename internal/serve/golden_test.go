package serve

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The golden schema names three attributes that JSON must escape: one
// with HTML-sensitive characters, one holding U+2028 and one with an
// invalid UTF-8 byte. The program's literals carry the same characters,
// so they reach the wire as expected values too.
const goldenSchemaCSV = "Zip,City,State,a<b&c>,line\u2028sep,bad\xffname\n" +
	"1,<A&B>,CA,p,q,r\n" +
	"2,x\u2028y,CA,p,q,r\n" +
	"3,\xff,NY,p,q,r\n" +
	"4,Plain,CA,p,q,r\n"

const goldenProg = `GIVEN Zip ON City HAVING
  IF Zip = "1" THEN City <- "<A&B>";
  IF Zip = "2" THEN City <- "x\u2028y";
  IF Zip = "3" THEN City <- "\xff";
  IF Zip = "4" THEN City <- "Plain";
GIVEN City ON State HAVING
  IF City = "Plain" THEN State <- "CA";
`

// goldenNDJSON covers the fast line shape and every fallback the NDJSON
// reader has: escapes, raw U+2028 and invalid UTF-8, null, a duplicated
// key, a missing attribute, two objects on one line, an object split over
// lines, blank lines and CRLF. The malformed last-but-one line ends the
// batch; the row after it is never read.
var goldenNDJSON = strings.Join([]string{
	`{"Zip":"4","City":"Plain","State":"CA","a<b&c>":"v","line` + "\u2028" + `sep":"w"}`,
	`{"Zip":"4","City":"Plain","State":"NY"}`,
	`{"Zip":"1","City":"Plain","State":"NY"}`,
	`{"Zip":"9","City":"Nowhere <&>","State":"??"}`,
	`{"Zip":"2","City":"x` + "\u2028" + `y"}`,
	`{"Zip":"2","City":"x\u2028y","line\u2028sep":"\u2029"}`,
	`{"Zip":"3","City":"` + "\xff" + `"}`,
	`{"Zip":"3","City":"\"quoted\" \\ back\/slash","State":null}`,
	`{"Zip":"1","Zip":"4","City":""}`,
	`  {"Zip":"4"} {"Zip":"1","City":"<A&B>"}`,
	``,
	`{"Zip":`,
	`  "2", "City":"x"}` + "\r",
	`{ "Zip" : "4" , "City" : "caf\u00e9" }`,
	`null`,
	`{"Zip":4}`,
	`{"Zip":"4","City":"never read"}`,
}, "\n") + "\n"

// goldenCSV has its columns in a different order from the schema, quoted
// fields holding the delimiter and a newline, raw U+2028 and invalid UTF-8,
// unseen values, empty cells and CRLF, and a short row that ends the batch.
const goldenCSV = "City,Zip,bad\xffname,State,line\u2028sep,a<b&c>\r\n" +
	"Plain,4,r,CA,q,p\r\n" +
	"Plain,1,r,NY,q,p\n" +
	"\"a,b\",2,\xfe,,\"multi\nline\",<&>\n" +
	"x\u2028y,2,r,CA,\u2029,p\n" +
	"\xff,3,,NY,,\n" +
	",,,,,\n" +
	"Nowhere,9,z,ZZ,q,p\n" +
	"\xfe\xff,1,r,CA,q,p\n" +
	"a\u2028b,4,r,CA,q,p\n" +
	"<z>&,4,r,NY,q,p\n" +
	"short,row\n" +
	"Plain,4,r,CA,q,p\n"

type goldenCase struct {
	name, path, ct, body string
}

var goldenCases = []goldenCase{
	{"ndjson-check", "/v1/check?dataset=golden", "application/x-ndjson", goldenNDJSON},
	{"ndjson-rectify", "/v1/rectify?dataset=golden", "application/x-ndjson", goldenNDJSON},
	{"ndjson-unknown-attr", "/v1/check?dataset=golden", "application/x-ndjson",
		`{"Zip":"4"}` + "\n" + `{"Zip":"4","bad` + "\xff" + `name":"r"}` + "\n" + `{"Zip":"4"}` + "\n"},
	{"ndjson-unknown-attrs", "/v1/rectify?dataset=golden", "application/x-ndjson",
		`{"Zip":"4"}` + "\n" + `{"zz":"1","Zip":"4","Bogus":"2","bad":"3"}` + "\n"},
	{"ndjson-syntax-error", "/v1/rectify?dataset=golden", "application/x-ndjson",
		`{"Zip":"4"}` + "\n" + `{"Zip":"4",}` + "\n"},
	{"ndjson-array", "/v1/check?dataset=golden", "application/x-ndjson", `["Zip","4"]` + "\n"},
	{"ndjson-truncated", "/v1/check?dataset=golden", "application/x-ndjson", `{"Zip":"4"}` + "\n" + `{"Zip":"4","Ci`},
	{"ndjson-control-char", "/v1/check?dataset=golden", "application/x-ndjson", "{\"Zip\":\"4\x01\"}\n"},
	{"ndjson-empty", "/v1/check?dataset=golden", "application/x-ndjson", ""},
	{"csv-check", "/v1/check?dataset=golden", "text/csv", goldenCSV},
	{"csv-rectify", "/v1/rectify?dataset=golden", "text/csv", goldenCSV},
	{"csv-bad-header", "/v1/check?dataset=golden", "text/csv", "Zip,City\n1,2\n"},
	{"csv-rectify-bad-header", "/v1/rectify?dataset=golden", "text/csv", "Zip,Zip\n1,2\n"},
	{"csv-header-only", "/v1/check?dataset=golden", "text/csv", "Zip,City,State,a<b&c>,line\u2028sep,bad\xffname\n"},
}

// TestWireGolden pins the bytes of streaming check and rectify responses —
// status, Content-Type, the error trailer and the body — across commits.
// Regenerate with `go test ./internal/serve -run WireGolden -update` only
// when a change to the wire format is intended.
func TestWireGolden(t *testing.T) {
	reg := NewRegistry(nil)
	if _, _, err := reg.Load("golden", []byte(goldenSchemaCSV), []byte(goldenProg)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Registry: reg, FlightSize: -1}).Handler())
	defer ts.Close()

	var b strings.Builder
	for _, c := range goldenCases {
		req, err := http.NewRequest("POST", ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", c.ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\nstatus %d\ncontent-type %q\n", c.name, resp.StatusCode, resp.Header.Get("Content-Type"))
		if tr := resp.Trailer.Get(errorTrailer); tr != "" {
			fmt.Fprintf(&b, "trailer %q\n", tr)
		}
		for _, line := range strings.SplitAfter(string(body), "\n") {
			if line != "" {
				fmt.Fprintf(&b, "%q\n", line)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "wire.golden"), b.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\ngot:  %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
