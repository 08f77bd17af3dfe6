package wiera

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/tenant"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fuzzTargets maps every hot message's tag to a fresh-destination
// constructor, so the fuzzer can route arbitrary frames to the right
// decoder the same way transport.Decode's callers do.
func fuzzTargets() map[byte]func() wire.Unmarshaler {
	targets := make(map[byte]func() wire.Unmarshaler)
	for _, tc := range hotMessages() {
		zero := tc.zero
		targets[tc.msg.WireTag()] = zero
	}
	return targets
}

// sampleNACKs is one populated sample of every error that declares a status
// code with a detail payload.
func sampleNACKs() []wire.Coded {
	return []wire.Coded{
		&WrongShardError{Epoch: 41, Shard: 3, Owner: "app/us-west#2"},
		&ErrRebalanceInProgress{InstanceID: "app"},
		&tenant.ErrQuotaExceeded{Tenant: "bronze", Kind: "iops"},
	}
}

// recoverNACK decodes a reply's detail with the As* function its code
// selects; nil when the detail is rejected (or the code carries none).
func recoverNACK(err error) wire.Coded {
	if e := AsWrongShard(err); e != nil {
		return e
	}
	if e := AsRebalanceInProgress(err); e != nil {
		return e
	}
	if e := tenant.AsQuotaExceeded(err); e != nil {
		return e
	}
	return nil
}

// checkStatusDetail treats data as the detail of a failed reply under each
// detail-bearing code. Decoding never panics; an accepted detail is
// canonical (the recovered NACK re-encodes to exactly data); a rejected one
// leaves a plain RemoteError whose code still decides the client's action.
func checkStatusDetail(t *testing.T, data []byte) {
	for _, nack := range sampleNACKs() {
		code, _ := nack.WireStatus()
		err := error(transport.RemoteError{Code: code, Msg: nack.Error(), Detail: data})
		want := classify(nack)
		if got := classify(err); got != want {
			t.Fatalf("code %d with detail %x: action %d, want %d", code, data, got, want)
		}
		typed := recoverNACK(err)
		if typed == nil {
			var re transport.RemoteError
			if !errors.As(err, &re) || re.Code != code {
				t.Fatalf("rejected detail %x lost the code %d", data, code)
			}
			continue
		}
		if gotCode, again := typed.WireStatus(); gotCode != code || !bytes.Equal(again, data) {
			t.Fatalf("code %d accepted non-canonical detail:\ninput: %x\nagain: %x (code %d)", code, data, again, gotCode)
		}
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to the wire decoder, as a frame
// and as a status detail (checkStatusDetail). Two frame
// invariants: decoding never panics (truncated/corrupt frames return
// errors), and any input that does decode is canonical-stable — encoding
// the decoded value and decoding/encoding again reproduces the exact same
// bytes. (The fuzzer can synthesize non-canonical inputs only by breaking
// strict varint/bool rules, which the decoder rejects, so byte-exactness
// is checked on the first re-encode generation.)
func FuzzWireRoundTrip(f *testing.F) {
	// Seed with every hot message's real encoding plus mutations the
	// decoder must reject.
	for _, tc := range hotMessages() {
		frame := wire.Marshal(tc.msg)
		f.Add(frame)
		if len(frame) > wire.HeaderLen {
			f.Add(frame[:len(frame)-1])
			f.Add(append(append([]byte{}, frame...), 0x00))
		}
	}
	for _, nack := range sampleNACKs() {
		_, detail := nack.WireStatus()
		f.Add(detail)
		f.Add(detail[:len(detail)-1])
		f.Add(append(append([]byte{}, detail...), 0x00))
	}
	f.Add([]byte{})
	f.Add([]byte{0xBD})
	f.Add([]byte{0xBD, 0x57, 0x01})
	f.Add([]byte{0xBD, 0x57, 0xFF, 0x01})

	targets := fuzzTargets()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStatusDetail(t, data)
		if !wire.Is(data) {
			// Non-wire inputs must be identified as such, not crash.
			for _, zero := range targets {
				if err := wire.Unmarshal(data, zero()); err == nil {
					t.Fatalf("non-wire input decoded: %x", data)
				}
			}
			return
		}
		zero, ok := targets[data[3]]
		if !ok {
			// Unknown tag: every decoder must reject the frame.
			for _, z := range targets {
				if err := wire.Unmarshal(data, z()); err == nil {
					t.Fatalf("frame with unknown tag 0x%02x decoded", data[3])
				}
			}
			return
		}
		msg := zero()
		if err := wire.Unmarshal(data, msg); err != nil {
			return // rejected cleanly — fine
		}
		// Round-trip stability: decode(marshal(decode(data))) re-encodes
		// byte-exact.
		b1 := wire.Marshal(msg)
		msg2 := zero()
		if err := wire.Unmarshal(b1, msg2); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v\ninput: %x\nre-encoded: %x", err, data, b1)
		}
		b2 := wire.Marshal(msg2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("unstable round trip:\ninput: %x\ngen1:  %x\ngen2:  %x", data, b1, b2)
		}
		// The decoder is strict (canonical varints, 0/1 bools, exact
		// trailing check), so accepted input must itself be canonical.
		if !bytes.Equal(data, b1) {
			t.Fatalf("accepted non-canonical frame:\ninput: %x\ngen1:  %x", data, b1)
		}
	})
}
