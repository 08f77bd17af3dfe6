package wiera

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/repair"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sampleMeta fills every Meta field, including the ones that are usually
// zero (EC layout, tags, flags), so round-trip tests cover the full walk.
func sampleMeta(key string) object.Meta {
	return object.Meta{
		Key:        key,
		Version:    7,
		Size:       4096,
		Dirty:      true,
		TierName:   "memory",
		Origin:     "node/us-west",
		CreatedAt:  time.Unix(1700000000, 111),
		ModifiedAt: time.Unix(1700000001, 222),
		AccessedAt: time.Unix(1700000002, 333),
		AccessCnt:  42,
		Tags:       []string{"hot", "pinned"},
		Compressed: true,
		Encrypted:  false,
		ECK:        4,
		ECM:        2,
		ECFrags:    []int{0, 3, 5},
	}
}

// hotMessages returns one populated sample of every wire-capable message,
// paired with a fresh zero destination of the same type.
func hotMessages() []struct {
	name string
	msg  wire.Unmarshaler
	zero func() wire.Unmarshaler
} {
	meta := sampleMeta("obj/a")
	upd := UpdateMsg{Meta: meta, Data: []byte("payload-1"), Forwarded: true}
	upd2 := UpdateMsg{Meta: sampleMeta("obj/b"), Data: nil}
	return []struct {
		name string
		msg  wire.Unmarshaler
		zero func() wire.Unmarshaler
	}{
		{"PutRequest", &PutRequest{Key: "k", Data: []byte("data"), Tags: []string{"a", "b"}, From: "n1"}, func() wire.Unmarshaler { return &PutRequest{} }},
		{"PutRequest/empty", &PutRequest{}, func() wire.Unmarshaler { return &PutRequest{} }},
		{"PutResponse", &PutResponse{Meta: meta}, func() wire.Unmarshaler { return &PutResponse{} }},
		{"GetRequest", &GetRequest{Key: "k"}, func() wire.Unmarshaler { return &GetRequest{} }},
		{"GetResponse", &GetResponse{Data: []byte("d"), Meta: meta, HotReplicas: []string{"n2", "n3"}}, func() wire.Unmarshaler { return &GetResponse{} }},
		{"GetVersionRequest", &GetVersionRequest{Key: "k", Version: 9}, func() wire.Unmarshaler { return &GetVersionRequest{} }},
		{"VersionListRequest", &VersionListRequest{Key: "k"}, func() wire.Unmarshaler { return &VersionListRequest{} }},
		{"PlacementRequest", &PlacementRequest{Key: "k"}, func() wire.Unmarshaler { return &PlacementRequest{} }},
		{"ProxyRequest", &ProxyRequest{InstanceID: "app", Payload: wire.Marshal(PutRequest{Key: "k", Data: []byte("data")})}, func() wire.Unmarshaler { return &ProxyRequest{} }},
		{"ProxyRequest/get", &ProxyRequest{InstanceID: "app", Payload: wire.Marshal(GetRequest{Key: "k"})}, func() wire.Unmarshaler { return &ProxyRequest{} }},
		{"ProxyRequest/empty", &ProxyRequest{}, func() wire.Unmarshaler { return &ProxyRequest{} }},
		{"RemoveRequest", &RemoveRequest{Key: "k"}, func() wire.Unmarshaler { return &RemoveRequest{} }},
		{"RemoveVersionRequest", &RemoveVersionRequest{Key: "k", Version: 3}, func() wire.Unmarshaler { return &RemoveVersionRequest{} }},
		{"UpdateMsg", &upd, func() wire.Unmarshaler { return &UpdateMsg{} }},
		{"UpdateAck", &UpdateAck{Accepted: true}, func() wire.Unmarshaler { return &UpdateAck{} }},
		{"UpdateBatchRequest", &UpdateBatchRequest{Updates: []UpdateMsg{upd, upd2}}, func() wire.Unmarshaler { return &UpdateBatchRequest{} }},
		{"UpdateBatchRequest/empty", &UpdateBatchRequest{}, func() wire.Unmarshaler { return &UpdateBatchRequest{} }},
		{"UpdateBatchResponse", &UpdateBatchResponse{Acks: []BatchAck{{Accepted: true}, {Err: "lost LWW"}}}, func() wire.Unmarshaler { return &UpdateBatchResponse{} }},
		{"ECFragRequest", &ECFragRequest{Key: "k", Version: 5}, func() wire.Unmarshaler { return &ECFragRequest{} }},
		{"ECFragResponse", &ECFragResponse{Meta: meta, Data: []byte("frag")}, func() wire.Unmarshaler { return &ECFragResponse{} }},
		{"RepairDigestRequest", &RepairDigestRequest{Fanout: 4, Depth: 3, Nodes: []int{0, 1, 7}}, func() wire.Unmarshaler { return &RepairDigestRequest{} }},
		{"RepairDigestResponse", &RepairDigestResponse{Digests: []uint64{0, 1, 1 << 60}}, func() wire.Unmarshaler { return &RepairDigestResponse{} }},
		{"RepairEntriesRequest", &RepairEntriesRequest{Fanout: 2, Depth: 1, Leaves: []int{3}}, func() wire.Unmarshaler { return &RepairEntriesRequest{} }},
		{"RepairEntriesResponse", &RepairEntriesResponse{Entries: []repair.Entry{{Key: "k", Version: 2, Mtime: 12345, Origin: "n1"}}}, func() wire.Unmarshaler { return &RepairEntriesResponse{} }},
		{"RepairPullRequest", &RepairPullRequest{Keys: []string{"a", "b"}}, func() wire.Unmarshaler { return &RepairPullRequest{} }},
		{"RepairPullResponse", &RepairPullResponse{Updates: []UpdateMsg{upd}}, func() wire.Unmarshaler { return &RepairPullResponse{} }},
		{"RepairPushRequest", &RepairPushRequest{Updates: []UpdateMsg{upd, upd2}}, func() wire.Unmarshaler { return &RepairPushRequest{} }},
		{"RepairPushResponse", &RepairPushResponse{Accepted: 3}, func() wire.Unmarshaler { return &RepairPushResponse{} }},
		{"Empty", &Empty{}, func() wire.Unmarshaler { return &Empty{} }},
	}
}

// TestWireRoundTrip checks, for every hot message: the encoded frame is
// exactly header + WireSize bytes, decodes into an equal value, and
// re-encodes byte-exact.
func TestWireRoundTrip(t *testing.T) {
	for _, tc := range hotMessages() {
		t.Run(tc.name, func(t *testing.T) {
			frame := wire.Marshal(tc.msg)
			if want := wire.HeaderLen + tc.msg.WireSize(); len(frame) != want {
				t.Fatalf("frame is %d bytes, WireSize promises %d", len(frame), want)
			}
			out := tc.zero()
			if err := wire.Unmarshal(frame, out); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			again := wire.Marshal(out)
			if !bytes.Equal(frame, again) {
				t.Fatalf("re-encode differs:\n  first  %x\n  second %x", frame, again)
			}
		})
	}
}

// TestWireRoundTripThroughTransport runs the same round trip through
// transport.Encode/Decode — the integration seam the RPC paths use: a hot
// message always travels as a wire frame.
func TestWireRoundTripThroughTransport(t *testing.T) {
	for _, tc := range hotMessages() {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := transport.Encode(tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, wire.Marshal(tc.msg)) {
				t.Fatal("Encode did not produce the message's wire frame")
			}
			out := tc.zero()
			if err := transport.Decode(frame, out); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if again := wire.Marshal(out); !bytes.Equal(frame, again) {
				t.Fatalf("re-encode differs:\n  first  %x\n  second %x", frame, again)
			}
		})
	}
}

// TestWireTruncationAndCorruption: every strict prefix of every frame must
// return an error (never panic, never succeed), as must trailing garbage
// and an unknown version byte.
func TestWireTruncationAndCorruption(t *testing.T) {
	for _, tc := range hotMessages() {
		t.Run(tc.name, func(t *testing.T) {
			frame := wire.Marshal(tc.msg)
			for i := wire.HeaderLen; i < len(frame); i++ {
				if err := wire.Unmarshal(frame[:i:i], tc.zero()); err == nil {
					t.Fatalf("truncation at byte %d/%d decoded successfully", i, len(frame))
				}
			}
			trailing := append(append([]byte{}, frame...), 0x00)
			if err := wire.Unmarshal(trailing, tc.zero()); err == nil {
				t.Fatal("trailing byte not rejected")
			}
			if len(frame) > wire.HeaderLen {
				// Corrupt version byte.
				bad := append([]byte{}, frame...)
				bad[2] = 0x7E
				if err := transport.Decode(bad, tc.zero()); err == nil {
					t.Fatal("unknown frame version not rejected")
				}
			}
		})
	}
}

// TestDecodeWireFrameIntoNonWireType: a message's type fixes its encoding,
// so a payload in the other one must error cleanly, in both directions.
func TestDecodeWireFrameIntoNonWireType(t *testing.T) {
	frame := wire.Marshal(GetRequest{Key: "k"})
	var ctl HotDropMsg // gob-only type
	if err := transport.Decode(frame, &ctl); err == nil {
		t.Fatal("wire frame decoded into a non-wire type")
	}
	gobbed, err := transport.Encode(HotDropMsg{Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	var hot GetRequest // same field layout, so gob itself would accept it
	if err := transport.Decode(gobbed, &hot); !errors.Is(err, wire.ErrNotWire) {
		t.Fatalf("gob payload into a wire type: err = %v, want wire.ErrNotWire", err)
	}
}

// TestWireDecodeZeroCopy: a decoded payload must alias the frame, not a
// copy — the zero-copy contract the tier layer's copy-on-Put makes safe.
func TestWireDecodeZeroCopy(t *testing.T) {
	in := PutRequest{Key: "k", Data: bytes.Repeat([]byte{0xAA}, 256)}
	frame := wire.Marshal(in)
	var out PutRequest
	if err := wire.Unmarshal(frame, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != 256 {
		t.Fatalf("data length %d", len(out.Data))
	}
	// Mutating the frame must show through the decoded slice: Data aliases
	// the frame rather than copying it.
	i := bytes.IndexByte(frame, 0xAA)
	if i < 0 {
		t.Fatal("payload bytes not found in frame")
	}
	frame[i] = 0x55
	if out.Data[0] != 0x55 {
		t.Fatal("decoded Data does not alias the frame buffer")
	}
}

// TestEncodeDecodeZeroAlloc is the codec's absolute gate: AppendEncode into
// a reused buffer plus Decode into a reused value allocates nothing, for
// each of the real messages BenchmarkEncode times.
func TestEncodeDecodeZeroAlloc(t *testing.T) {
	for _, m := range encodeMessages() {
		out := m.zero()
		var buf []byte
		allocs := testing.AllocsPerRun(100, func() {
			raw, ok := transport.AppendEncode(transport.CodecAuto, buf[:0], m.msg)
			if !ok {
				t.Fatal("wire fast path not taken")
			}
			buf = raw
			if err := transport.Decode(raw, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per AppendEncode+Decode, want 0", m.name, allocs)
		}
	}
}

// TestWireTags: wiera's tags are unique and inside the range the wire tag
// table gives the package, 0x01–0x3F.
func TestWireTags(t *testing.T) {
	owner := map[byte]reflect.Type{}
	for _, tc := range hotMessages() {
		tag, typ := tc.msg.WireTag(), reflect.TypeOf(tc.msg)
		if tag < 0x01 || tag > 0x3F {
			t.Errorf("%s: tag 0x%02x outside wiera's range 0x01-0x3F", tc.name, tag)
		}
		if prev, ok := owner[tag]; ok && prev != typ {
			t.Errorf("%s and %s share tag 0x%02x", typ, prev, tag)
		}
		owner[tag] = typ
	}
}

// TestRequestKey: for every Table 2 data method the key read from the front
// of the body equals the key a full decode finds, and a body that is not
// that request's wire frame is an error.
func TestRequestKey(t *testing.T) {
	const key = "tn:gold:user/0042"
	cases := []struct {
		method string
		req    wire.Marshaler
		zero   wire.Unmarshaler
	}{
		{MethodPut, PutRequest{Key: key, Data: []byte("v"), Tags: []string{"t"}, From: "n1"}, &PutRequest{}},
		{MethodGet, GetRequest{Key: key}, &GetRequest{}},
		{MethodGetVersion, GetVersionRequest{Key: key, Version: 3}, &GetVersionRequest{}},
		{MethodVersionList, VersionListRequest{Key: key}, &VersionListRequest{}},
		{MethodRemove, RemoveRequest{Key: key}, &RemoveRequest{}},
		{MethodRemoveVer, RemoveVersionRequest{Key: key, Version: 2}, &RemoveVersionRequest{}},
		{MethodPlacement, PlacementRequest{Key: key}, &PlacementRequest{}},
	}
	for _, tc := range cases {
		payload, err := transport.Encode(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.Decode(payload, tc.zero); err != nil {
			t.Fatalf("%s: full decode: %v", tc.method, err)
		}
		decoded := reflect.ValueOf(tc.zero).Elem().FieldByName("Key").String()
		got, err := RequestKey(tc.method, payload)
		if err != nil || got != decoded {
			t.Fatalf("%s: RequestKey = %q, %v; full decode found %q", tc.method, got, err, decoded)
		}
		gobbed, err := transport.Encode(HotDropMsg{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{nil, []byte("junk"), gobbed, payload[:wire.HeaderLen+1]} {
			if k, err := RequestKey(tc.method, bad); err == nil {
				t.Fatalf("%s: body %x accepted, key %q", tc.method, bad, k)
			}
		}
	}
	// A frame of another data request is not this method's body.
	if _, err := RequestKey(MethodPut, wire.Marshal(GetRequest{Key: key})); !errors.Is(err, wire.ErrTag) {
		t.Fatalf("get frame under MethodPut: err = %v, want wire.ErrTag", err)
	}
	if _, err := RequestKey(MethodStartInstances, wire.Marshal(GetRequest{Key: key})); err == nil {
		t.Fatal("control method accepted")
	}
}
