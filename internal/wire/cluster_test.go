package wire

import "testing"

func TestHelloRoundTrip(t *testing.T) {
	v, err := DecodeHello(EncodeHello())
	if err != nil {
		t.Fatal(err)
	}
	if v != ProtocolVersion {
		t.Fatalf("hello carries version %d, want %d", v, ProtocolVersion)
	}
	for _, bad := range [][]byte{nil, {}, {1, 2}} {
		if _, err := DecodeHello(bad); err == nil {
			t.Fatalf("DecodeHello accepted %x", bad)
		}
	}
}
