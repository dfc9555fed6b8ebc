package digruber_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/usla"
)

// GossipArgsPreUSLAs is the gossip push before it carried USLA
// entries, when the usage-and-USLAs strategy still had its own exchange
// message.
type GossipArgsPreUSLAs struct {
	From    string
	Round   uint64
	Digest  []gossip.Cursor
	Records []gruber.Dispatch
	Members []gossip.Member
}

func gossipRecords() []gruber.Dispatch {
	return []gruber.Dispatch{{
		JobID: "dp-0-7", Site: "site-004", Owner: "atlas.higgs", CPUs: 2,
		Runtime: 15 * time.Minute, At: compatEpoch.Add(3 * time.Minute),
		Origin: "dp-0", Seq: 7,
	}}
}

func preUSLAsGossip() GossipArgsPreUSLAs {
	return GossipArgsPreUSLAs{
		From: "dp-0", Round: 4,
		Digest:  []gossip.Cursor{{Origin: "dp-0", Seq: 7}, {Origin: "dp-1", Seq: 2}},
		Records: gossipRecords(),
		Members: []gossip.Member{{Name: "dp-0", Node: "n0", Addr: "dp-0:7000"}},
	}
}

func curGossip() digruber.GossipArgs {
	a := preUSLAsGossip()
	return digruber.GossipArgs{From: a.From, Round: a.Round, Digest: a.Digest, Records: a.Records, Members: a.Members}
}

func gossipUSLAs() []usla.Entry {
	return []usla.Entry{{
		Provider: "site-004", Consumer: usla.MustParsePath("atlas"), Resource: usla.CPU,
		Share: usla.Share{Percent: 30, Kind: usla.UpperLimit},
	}}
}

// TestGossipUSLAsWireCompat is the append-only gate for the USLAs
// field: a push without USLA entries — every gossip and usage-only
// message — encodes byte-identically to the pre-USLAs shape, and the
// field costs bytes only under the usage-and-USLAs strategy.
func TestGossipUSLAsWireCompat(t *testing.T) {
	oldMsg := primedEncode(t, GossipArgsPreUSLAs{From: "p"}, preUSLAsGossip())
	newMsg := primedEncode(t, digruber.GossipArgs{From: "p"}, curGossip())
	if old, new := valueBody(t, oldMsg), valueBody(t, newMsg); !bytes.Equal(old, new) {
		t.Fatalf("USLA-free gossip push value encoding changed:\n old %x\n new %x", old, new)
	}

	withUSLAs := curGossip()
	withUSLAs.USLAs = gossipUSLAs()
	extended := primedEncode(t, digruber.GossipArgs{From: "p"}, withUSLAs)
	if bytes.Equal(valueBody(t, newMsg), valueBody(t, extended)) {
		t.Fatal("setting USLAs did not change the encoding")
	}
}

// TestGossipUSLAsCrossDecode: pre-USLAs and current shapes interoperate
// in both directions around the USLAs field — an old push decodes with
// no entries, and an old receiver skips the entries of a new one.
func TestGossipUSLAsCrossDecode(t *testing.T) {
	// Old sender → new receiver: USLAs stays nil.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(preUSLAsGossip()); err != nil {
		t.Fatal(err)
	}
	var got digruber.GossipArgs
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("new receiver decoding old push: %v", err)
	}
	if !reflect.DeepEqual(got, curGossip()) {
		t.Fatalf("pre→new decode mismatch:\n got %+v\nwant %+v", got, curGossip())
	}

	// New sender (entries set) → old receiver: the entries are dropped,
	// everything else survives.
	withUSLAs := curGossip()
	withUSLAs.USLAs = gossipUSLAs()
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(withUSLAs); err != nil {
		t.Fatal(err)
	}
	var old GossipArgsPreUSLAs
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("old receiver decoding new push: %v", err)
	}
	if !reflect.DeepEqual(old, preUSLAsGossip()) {
		t.Fatalf("new→pre decode mismatch:\n got %+v\nwant %+v", old, preUSLAsGossip())
	}
}
