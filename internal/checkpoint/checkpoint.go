// Package checkpoint defines the on-disk envelope shared by every
// checkpoint kind the simulator writes: a magic string, a kind tag
// ("world" for a bare simulation, "scenario" for a scripted run), and a
// SHA-256 digest over the canonical JSON body. The digest turns silent
// bit rot into a loud error — a checkpoint that does not verify is
// rejected before any state is rebuilt — and the kind tag lets the CLI
// dispatch without sniffing body fields.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Magic identifies a checkpoint file. It carries the envelope version:
// incompatible envelope changes bump the suffix.
const Magic = "replend-checkpoint/v1"

// Checkpoint kinds.
const (
	KindWorld    = "world"
	KindScenario = "scenario"
)

// File is the envelope. Body is the kind-specific snapshot document;
// Sum is the lowercase hex SHA-256 of exactly the Body bytes.
type File struct {
	Magic string          `json:"magic"`
	Kind  string          `json:"kind"`
	Sum   string          `json:"sha256"`
	Body  json.RawMessage `json:"body"`
}

// Seal encodes body as canonical JSON and wraps it in a verified
// envelope of the given kind. The envelope bytes are written directly
// around the body: json.Marshal output is already compact and
// HTML-escaped, so they equal json.Marshal of the File without a second
// pass over the body.
func Seal(kind string, body any) ([]byte, error) {
	if kind != KindWorld && kind != KindScenario {
		return nil, fmt.Errorf("checkpoint: unknown kind %q", kind)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding %s body: %w", kind, err)
	}
	sum := sha256.Sum256(raw)
	out := make([]byte, 0, len(raw)+160)
	out = append(out, `{"magic":"`+Magic+`","kind":"`...)
	out = append(out, kind...)
	out = append(out, `","sha256":"`...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, `","body":`...)
	out = append(out, raw...)
	return append(out, '}'), nil
}

// Open parses an envelope, verifies the magic and the digest, and
// returns the kind tag with the body bytes. It never panics on
// malformed input; every defect is an error.
func Open(data []byte) (kind string, body json.RawMessage, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return "", nil, fmt.Errorf("checkpoint: parsing envelope: %w", err)
	}
	if dec.More() {
		return "", nil, fmt.Errorf("checkpoint: trailing data after envelope")
	}
	if f.Magic != Magic {
		return "", nil, fmt.Errorf("checkpoint: bad magic %q (want %q)", f.Magic, Magic)
	}
	if f.Kind != KindWorld && f.Kind != KindScenario {
		return "", nil, fmt.Errorf("checkpoint: unknown kind %q", f.Kind)
	}
	if len(f.Body) == 0 {
		return "", nil, fmt.Errorf("checkpoint: empty body")
	}
	sum := sha256.Sum256(f.Body)
	if got := hex.EncodeToString(sum[:]); got != f.Sum {
		return "", nil, fmt.Errorf("checkpoint: body digest mismatch (file corrupt?)")
	}
	return f.Kind, f.Body, nil
}

// Unmarshal strictly decodes a checkpoint body into dst, rejecting
// unknown fields so version-skewed documents fail instead of restoring
// a partial state.
func Unmarshal(body json.RawMessage, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("checkpoint: decoding body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("checkpoint: trailing data after body")
	}
	return nil
}
