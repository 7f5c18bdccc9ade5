package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mendel/internal/obs"
	"mendel/internal/wire"
)

// legacyGobRequest returns the first bytes a binary built before framing
// existed sends on a fresh connection: a persistent-gob stream carrying its
// request envelope, which advertised a protocol version in a Wire field.
func legacyGobRequest(t testing.TB) []byte {
	t.Helper()
	// Declared locally so gob transmits the same type name the old
	// binaries did.
	type reqEnvelope struct {
		V    any
		TC   obs.TraceContext
		Wire byte
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&reqEnvelope{V: wire.Ping{}, Wire: 1}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hugeFrameHeader is a 6-byte frame header claiming a 1 GiB payload that
// never arrives.
func hugeFrameHeader() []byte {
	return binary.AppendUvarint([]byte{frameBinary}, maxFramePayload)
}

// sendRaw writes data on a fresh raw connection, half-closes it when
// halfClose is set, and returns whatever the server wrote back before
// closing its side.
func sendRaw(t *testing.T, addr string, data []byte, halfClose bool) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if halfClose {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("server did not close the connection: %v", err)
	}
	return got
}

// TestTCPServerDropsHostileInput feeds the server what an old gob peer and
// a lying length prefix send first: the gob stream must be dropped without
// reaching the handler, the 1 GiB header must not reserve 1 GiB, and a
// normal client must keep getting answers afterwards.
func TestTCPServerDropsHostileInput(t *testing.T) {
	var calls atomic.Int64
	s := startServer(t, HandlerFunc(func(context.Context, any) (any, error) {
		calls.Add(1)
		return wire.Pong{Node: "srv"}, nil
	}))
	c := NewTCPClient(1)
	defer c.Close()
	ping := func() {
		t.Helper()
		resp, err := c.Call(context.Background(), s.Addr(), wire.Ping{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.(wire.Pong).Node != "srv" {
			t.Fatalf("resp = %#v", resp)
		}
	}

	if got := sendRaw(t, s.Addr(), legacyGobRequest(t), false); len(got) != 0 {
		t.Fatalf("server answered a gob stream with %d bytes", len(got))
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a gob stream", n)
	}
	ping()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if got := sendRaw(t, s.Addr(), hugeFrameHeader(), true); len(got) != 0 {
		t.Fatalf("server answered a truncated frame with %d bytes", len(got))
	}
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 16<<20 {
		t.Fatalf("1 GiB length prefix cost %d MiB of allocation", delta>>20)
	}
	ping()
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler calls = %d, want 2", n)
	}
}

// TestReadFrame checks the incremental read path on a frame several times
// larger than the first allocation, and the rejections: truncation, an
// oversized length, and first bytes of other protocols.
func TestReadFrame(t *testing.T) {
	payload := make([]byte, 5*frameChunk/2)
	rand.New(rand.NewSource(1)).Read(payload)
	frame := append(binary.AppendUvarint([]byte{frameBinary | frameCompressed}, uint64(len(payload))), payload...)

	flags, got, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if flags != frameBinary|frameCompressed || !bytes.Equal(got, payload) {
		t.Fatalf("flags = %#x, payload equal = %v", flags, bytes.Equal(got, payload))
	}
	if _, _, err := readFrame(bytes.NewReader(frame[:len(frame)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v", err)
	}
	for _, foreign := range [][]byte{legacyGobRequest(t), []byte("GET / HTTP/1.1\r\n\r\n"), {1 << 2, 0}} {
		if _, _, err := readFrame(bytes.NewReader(foreign)); err == nil || !strings.Contains(err.Error(), "unknown frame flags") {
			t.Fatalf("first byte %#x: err = %v", foreign[0], err)
		}
	}
	if _, _, err := readFrame(bytes.NewReader(binary.AppendUvarint([]byte{0}, maxFramePayload+1))); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzReadFrame runs the server's front door — readFrame then
// decodeFrameRequest — over arbitrary bytes: it must return a message or an
// error, never panic.
func FuzzReadFrame(f *testing.F) {
	tc := obs.TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true}
	blocks := make([]wire.Block, 64)
	for i := range blocks {
		blocks[i] = wire.Block{Seq: 1, Start: 16 * i, Content: []byte("ACGTACGTACGTACGT")}
	}
	for _, seed := range []struct {
		req      any
		compress bool
	}{
		{wire.GroupSearch{Group: 1, Query: []byte("MKVLAT"), Offsets: []int{0}, WindowLen: 16, Params: wire.DefaultParams()}, false},
		{wire.Ping{}, false},
		{wire.IndexBlocks{Blocks: blocks}, true},
	} {
		var fp []byte
		frame, err := buildRequestFrame(&fp, tc, seed.req, seed.compress)
		if err != nil {
			f.Fatal(err)
		}
		if seed.compress && frame[0]&frameCompressed == 0 {
			f.Fatal("IndexBlocks seed frame was not compressed")
		}
		f.Add(frame)
	}
	f.Add(legacyGobRequest(f))
	f.Add(hugeFrameHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		flags, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		decodeFrameRequest(flags, payload)
	})
}
