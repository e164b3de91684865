// Package checkpoint holds the two codecs every cell store shares: the
// content-addressed key of a cell's full identity (scenario × agent ×
// engine × heap spec × scale) and the canonical JSON encoding of its
// result. Any two cells with equal keys are interchangeable
// pure-function evaluations, which is what lets the result cache
// (internal/resultcache) memoize, deduplicate and — because a killed
// run's finished cells are already stored — resume a campaign by simply
// rerunning it on the same cache directory.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CellKey content-addresses a cell: the hex sha256 of the canonical JSON
// encoding of identity. Callers put everything that determines the
// cell's result into identity — scenario workload and checks, agent,
// engine, effective heap spec, scale, run counts — so equal keys imply
// interchangeable results.
func CellKey(identity any) (string, error) {
	b, err := json.Marshal(identity)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hashing cell identity: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CanonicalPayload is the canonical JSON encoding of a cell payload —
// the byte form the result cache stores and every consumer decodes, so
// a payload round-trips bit-exactly between a cached and an uncached
// run: encoding/json is deterministic for struct-typed values (field
// order follows declaration, float formatting is shortest-round-trip),
// which is what makes byte-level cache verification possible at all.
func CanonicalPayload(payload any) (json.RawMessage, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding payload: %w", err)
	}
	return raw, nil
}
