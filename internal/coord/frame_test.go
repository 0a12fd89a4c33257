package coord

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// appendFrame appends one encoded frame to dst.
func appendFrame(dst []byte, typ frameType, payload []byte) []byte {
	return append(dst, encodeFrame(typ, payload)...)
}

// TestFrameRoundTrip: every frame type survives encode→decode, with
// buffer reuse across frames.
func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70_000)}
	types := []frameType{fHello, fStep, fImports, fShutdown, fReady, fRecords, fExports, fBoundary, fHeartbeat, fError}
	for i, typ := range types {
		stream = appendFrame(stream, typ, payloads[i%len(payloads)])
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range types {
		typ, payload, nbuf, err := ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("frame %d: type %d want %d", i, typ, want)
		}
		if wantP := payloads[i%len(payloads)]; !bytes.Equal(payload, wantP) {
			t.Fatalf("frame %d: payload %d bytes want %d", i, len(payload), len(wantP))
		}
	}
	if _, _, _, err := ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("stream end: %v", err)
	}
}

// TestFrameCorruption: torn and damaged streams fail with ErrFrame
// (typed, no panic); EOF is clean only at a frame start.
func TestFrameCorruption(t *testing.T) {
	frame := appendFrame(nil, fBoundary, []byte("payload"))
	cases := map[string][]byte{
		"torn length":   frame[:2],
		"torn body":     frame[:6],
		"torn checksum": frame[:len(frame)-2],
		"zero length":   binary.LittleEndian.AppendUint32(nil, 0),
		"huge length":   binary.LittleEndian.AppendUint32(nil, maxFramePayload+1),
	}
	for name, data := range cases {
		br := bufio.NewReader(bytes.NewReader(data))
		if _, _, _, err := ReadFrame(br, nil); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: %v", name, err)
		}
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xFF
	br := bufio.NewReader(bytes.NewReader(flipped))
	if _, _, _, err := ReadFrame(br, nil); !errors.Is(err, ErrFrame) {
		t.Errorf("flipped checksum: %v", err)
	}
	// A huge claimed length with no data behind it must fail without
	// allocating the claim.
	lie := binary.LittleEndian.AppendUint32(nil, maxFramePayload)
	br = bufio.NewReader(bytes.NewReader(lie))
	_, _, scratch, err := ReadFrame(br, nil)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("lying length: %v", err)
	}
	if cap(scratch) > 1<<17 {
		t.Fatalf("lying length prefix grew the buffer to %d bytes", cap(scratch))
	}
}

// TestSendGarbage: the garbage fault emits a frame the reader rejects
// as ErrFrame, and the conn stays usable afterwards.
func TestSendGarbage(t *testing.T) {
	var pipe bytes.Buffer
	c := newConn(&pipe, nil)
	if err := c.sendGarbage(); err != nil {
		t.Fatal(err)
	}
	if err := c.send(fHeartbeat, nil); err != nil {
		t.Fatalf("conn latched by garbage: %v", err)
	}
	br := bufio.NewReader(bytes.NewReader(pipe.Bytes()))
	if _, _, _, err := ReadFrame(br, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("garbage frame: %v", err)
	}
}

// FuzzReadFrame: arbitrary bytes must decode into frames or fail with
// a typed error — never panic, never allocate beyond the frame cap,
// and consume the stream making progress.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, fHello, []byte("hello")))
	f.Add(appendFrame(appendFrame(nil, fStep, nil), fBoundary, bytes.Repeat([]byte{7}, 300)))
	torn := appendFrame(nil, fRecords, bytes.Repeat([]byte{1}, 100))
	f.Add(torn[:len(torn)-3])
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFramePayload))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	bad := appendFrame(nil, fExports, []byte("x"))
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for frames := 0; ; frames++ {
			if frames > len(data) {
				t.Fatalf("more frames than input bytes: no progress")
			}
			typ, payload, nbuf, err := ReadFrame(br, buf)
			buf = nbuf
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrFrame) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if typ == 0 && len(payload) == 0 {
				t.Fatal("empty frame decoded as valid")
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("payload %d beyond cap", len(payload))
			}
		}
	})
}
