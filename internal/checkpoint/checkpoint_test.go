package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

type payload struct {
	Name  string `json:"name"`
	Ticks int64  `json:"ticks"`
}

func TestSealOpenRoundTrip(t *testing.T) {
	in := payload{Name: "steady", Ticks: 250000}
	data, err := Seal(KindWorld, in)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindWorld {
		t.Fatalf("kind = %q, want %q", kind, KindWorld)
	}
	var out payload
	if err := Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	// Sealing the same body twice yields identical bytes: the envelope
	// adds no nondeterminism of its own.
	data2, err := Seal(KindWorld, in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatal("sealing the same body twice produced different bytes")
	}
}

// referenceSeal is the envelope construction Seal replaced: marshal the
// body, then marshal the File around it as a json.RawMessage (which
// re-compacts and HTML-escapes the body a second time). Seal's output
// must stay byte-identical to it.
func referenceSeal(t *testing.T, kind string, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	out, err := json.Marshal(File{Magic: Magic, Kind: kind, Sum: hex.EncodeToString(sum[:]), Body: raw})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSealMatchesReferenceEnvelope(t *testing.T) {
	type nested struct {
		Note  string          `json:"note"`
		IDs   []byte          `json:"ids,omitempty"`
		Vals  []float64       `json:"vals,omitempty"`
		Extra json.RawMessage `json:"extra,omitempty"`
		Map   map[string]int  `json:"map,omitempty"`
	}
	bodies := []any{
		payload{Name: "steady", Ticks: 250000},
		payload{Name: "<script>&amp;</script> a>b", Ticks: -1},
		payload{Name: "line\u2028sep\u2029para \u00e9 \x00 \"q\" \\", Ticks: 0},
		nested{Note: "<&>", IDs: []byte{0, 1, 2, 0xff, '<'}, Vals: []float64{0, 1e-300, 0.1, 1e21}},
		nested{Extra: json.RawMessage(`{"raw": "<b>&\u2028</b>",  "n" : [1, 2]}`), Map: map[string]int{"z<": 1, "a&": 2}},
		json.RawMessage(`"top-level <string> & \u2028"`),
		[]string{"\u2028", "\u2029", "<", ">", "&", "\ufffd", "\xff"},
		nil,
		map[string]any{},
	}
	for _, kind := range []string{KindWorld, KindScenario} {
		for i, body := range bodies {
			got, err := Seal(kind, body)
			if err != nil {
				t.Fatalf("%s body %d: %v", kind, i, err)
			}
			if want := referenceSeal(t, kind, body); !bytes.Equal(got, want) {
				t.Fatalf("%s body %d: Seal differs from the reference envelope\ngot  %s\nwant %s", kind, i, got, want)
			}
			if _, _, err := Open(got); err != nil {
				t.Fatalf("%s body %d: sealed file does not open: %v", kind, i, err)
			}
		}
	}
}

func TestSealRejectsUnknownKind(t *testing.T) {
	if _, err := Seal("experiment", payload{}); err == nil {
		t.Fatal("Seal accepted an unknown kind")
	}
}

func TestOpenRejectsDefects(t *testing.T) {
	good, err := Seal(KindScenario, payload{Name: "quickstart", Ticks: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not json", []byte("not a checkpoint"), "parsing envelope"},
		{"empty envelope", []byte(`{}`), "bad magic"},
		{"trailing data", append(append([]byte{}, good...), " {}"...), "trailing data"},
		{"truncated", good[:len(good)-9], "parsing envelope"},
		{"bit flip in body", flip(good, []byte(`"ticks":7`), []byte(`"ticks":8`)), "digest mismatch"},
		{"wrong magic", flip(good, []byte("replend-checkpoint/v1"), []byte("replend-checkpoint/v2")), "bad magic"},
		{"unknown kind", flip(good, []byte(`"kind":"scenario"`), []byte(`"kind":"scenario2"`)), "unknown kind"},
		{"unknown envelope field", flip(good, []byte(`"magic"`), []byte(`"mägic"`)), "parsing envelope"},
		{"missing body", []byte(`{"magic":"replend-checkpoint/v1","kind":"world","sha256":""}`), "empty body"},
		{"null body", []byte(`{"magic":"replend-checkpoint/v1","kind":"world","sha256":"","body":null}`), "digest mismatch"},
	}
	for _, tc := range cases {
		_, _, err := Open(tc.data)
		if err == nil {
			t.Errorf("%s: Open accepted the defect", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestUnmarshalIsStrict(t *testing.T) {
	var dst payload
	if err := Unmarshal([]byte(`{"name":"x","ticks":1,"extra":true}`), &dst); err == nil {
		t.Fatal("Unmarshal accepted an unknown field")
	}
	if err := Unmarshal([]byte(`{"name":"x"} {"ticks":2}`), &dst); err == nil {
		t.Fatal("Unmarshal accepted trailing data")
	}
}

// flip replaces one occurrence of old with new, failing loudly if the
// pattern is absent so the corruption cases cannot silently test nothing.
func flip(data, old, new []byte) []byte {
	s := strings.Replace(string(data), string(old), string(new), 1)
	if s == string(data) {
		panic("flip: pattern not found: " + string(old))
	}
	return []byte(s)
}
