// Wire-compatibility regression tests for the Seq field appended to
// Dispatch by the gossip dissemination work. Like the digruber Status
// gates, the pre-gossip shape is declared under its original name in an
// external test package so descriptor-level comparisons line up.
package gruber_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"digruber/internal/gruber"
)

// Dispatch is the pre-gossip record shape: every field up to and
// including Origin, without the appended Seq.
type Dispatch struct {
	JobID   string
	Site    string
	Owner   string
	CPUs    int
	Runtime time.Duration
	At      time.Time
	Origin  string
}

var compatEpoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func newDispatch() gruber.Dispatch {
	return gruber.Dispatch{
		JobID: "job-17", Site: "site-003", Owner: "uc.cs.grads",
		CPUs: 4, Runtime: 90 * time.Minute,
		At: compatEpoch.Add(11 * time.Minute), Origin: "dp-2",
	}
}

func oldDispatch() Dispatch {
	return Dispatch{
		JobID: "job-17", Site: "site-003", Owner: "uc.cs.grads",
		CPUs: 4, Runtime: 90 * time.Minute,
		At: compatEpoch.Add(11 * time.Minute), Origin: "dp-2",
	}
}

// primedEncode encodes prime (carrying the type descriptors) and then v
// on one gob stream, returning only v's message bytes — what an
// established connection's persistent encoder transmits per record.
func primedEncode(t *testing.T, prime, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(prime); err != nil {
		t.Fatalf("prime: %v", err)
	}
	n := buf.Len()
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return append([]byte(nil), buf.Bytes()[n:]...)
}

// valueBody strips a gob value message's framing (byte-count prefix and
// stream-local type ID), leaving the field/value encoding.
func valueBody(t *testing.T, msg []byte) []byte {
	t.Helper()
	skipUint := func(b []byte) []byte {
		if len(b) == 0 {
			t.Fatal("short gob message")
		}
		if b[0] < 0x80 {
			return b[1:]
		}
		return b[1+(256-int(b[0])):]
	}
	return skipUint(skipUint(msg))
}

// TestDispatchWireCompat is the append-only gate for Seq: an unstamped
// record (Seq zero — what flooding Exchange batches from a pre-gossip
// peer look like) encodes byte-identically to the pre-gossip shape, and
// the field costs bytes only when actually stamped. This is why Seq must
// stay the LAST Dispatch field — gob delta-encodes field indices, so
// inserting it earlier would renumber Origin and break the identity.
func TestDispatchWireCompat(t *testing.T) {
	oldMsg := primedEncode(t, Dispatch{JobID: "p"}, oldDispatch())
	newMsg := primedEncode(t, gruber.Dispatch{JobID: "p"}, newDispatch())
	if len(oldMsg) != len(newMsg) {
		t.Fatalf("unstamped dispatch message grew: %d → %d bytes", len(oldMsg), len(newMsg))
	}
	if old, new := valueBody(t, oldMsg), valueBody(t, newMsg); !bytes.Equal(old, new) {
		t.Fatalf("unstamped dispatch value encoding changed:\n old %x\n new %x", old, new)
	}

	stamped := newDispatch()
	stamped.Seq = 17
	extended := primedEncode(t, gruber.Dispatch{JobID: "p"}, stamped)
	if bytes.Equal(valueBody(t, newMsg), valueBody(t, extended)) {
		t.Fatal("stamping Seq did not change the encoding")
	}
}

// TestDispatchCrossDecode: pre-gossip and current shapes interoperate in
// both directions — an old peer's records decode with Seq zero
// (unstamped, which MergeGossip ignores and snapshot import accepts), and a
// stamped record sent to an old peer simply sheds its stamp.
func TestDispatchCrossDecode(t *testing.T) {
	// Old sender → new receiver: Seq stays zero.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oldDispatch()); err != nil {
		t.Fatal(err)
	}
	var got gruber.Dispatch
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, newDispatch()) {
		t.Fatalf("old→new decode mismatch:\n got %+v\nwant %+v", got, newDispatch())
	}

	// New stamped sender → old receiver: Seq is dropped, everything else
	// survives.
	stamped := newDispatch()
	stamped.Seq = 17
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(stamped); err != nil {
		t.Fatal(err)
	}
	var old Dispatch
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, oldDispatch()) {
		t.Fatalf("new→old decode mismatch:\n got %+v\nwant %+v", old, oldDispatch())
	}
}
