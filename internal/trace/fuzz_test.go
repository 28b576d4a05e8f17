package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// goinstrSeed reads a checked-in binary trace captured by running vft-go
// over a testdata corpus program — a real instrumented Go execution, so
// the fuzzers start from the exact byte shapes the front-end emits
// (format v2, interleaved fork/chan/plain-access records).
func goinstrSeed(f *testing.F, name string) []byte {
	f.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzFromBytes: every byte string decodes to a feasible trace.
func FuzzFromBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte("fork-acquire-read-write-join soup"))
	f.Add(bytes.Repeat([]byte{4, 0}, 16)) // fork storm
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := FromBytes(data)
		if err := Validate(tr); err != nil {
			t.Fatalf("FromBytes produced infeasible trace: %v\n%v", err, tr)
		}
	})
}

// FuzzDecode: the text decoder never panics and accepts what it encodes.
func FuzzDecode(f *testing.F) {
	f.Add("rd 0 0\nwr 1 3\n")
	f.Add("# comment\nfork t0 t1\nacq 1 m0\n")
	f.Add("barrier 0 0\nvrd 0 9\n")
	f.Add("send 0 c0\nrecv 1 c0\nclose 0 c0\n")
	f.Add("aload 0 a2\nastore 1 a2\narmw 0 a2\nonce 1 o3\n")
	f.Add("garbage in\n\n\x00\xff")
	f.Add("fork 0 70000\nwr 70000 1\nwr 0 1\n") // tid beyond epoch.MaxTid
	// Instrumented-program captures, re-rendered as text so the text
	// decoder sees the op mixes vft-go actually produces.
	for _, name := range []string{"goinstr_racy_counter.bin", "goinstr_clean_chan.bin"} {
		tr, err := ReadAll(NewBinaryDecoder(bytes.NewReader(goinstrSeed(f, name))))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Decode(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		_ = Validate(tr) // likewise: any verdict, no panic
		// Whatever decoded must round-trip.
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("Encode failed on decoded trace: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-Decode failed: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip mismatch: %v vs %v", tr, back)
		}
	})
}

// FuzzBinaryRoundTrip: the binary decoder never panics on arbitrary bytes,
// and whatever it accepts is a fixed point of decode → encode → decode —
// the property that makes binary captures safe to re-encode and ship.
func FuzzBinaryRoundTrip(f *testing.F) {
	seed := func(tr Trace) []byte {
		var b bytes.Buffer
		if err := EncodeBinary(&b, tr); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(seed(nil))
	f.Add(seed(Trace{
		Rd(0, 0), Wr(1, 3), Acq(0, 1), Rel(0, 1), ForkOp(0, 1), JoinOp(0, 1),
		VRd(2, 7), VWr(2, 7), BarrierOp(3, 0), Wr(5, 1<<20),
	}))
	f.Add(seed(Trace{
		SendOp(0, 0), RecvOp(1, 0), CloseOp(0, 0),
		ALoad(0, 5), AStore(1, 5), ARMW(0, 5), OnceOp(1, 2),
	}))
	f.Add([]byte(binaryMagicPrefix + "\x01"))
	f.Add([]byte(binaryMagicPrefix + "\x02")) // v2 header, empty stream
	f.Add([]byte(binaryMagicPrefix + "\x03")) // future version: typed rejection
	f.Add([]byte("VFTb\x01\x03\x00\x00\x00"))
	f.Add([]byte("not a binary trace"))
	f.Add(seed(Trace{Wr(0, 0)})[:6]) // truncated mid-record
	// Instrumented-program captures: raw vft-go output bytes.
	f.Add(goinstrSeed(f, "goinstr_racy_counter.bin"))
	f.Add(goinstrSeed(f, "goinstr_clean_chan.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadAll(NewBinaryDecoder(bytes.NewReader(data)))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, tr); err != nil {
			t.Fatalf("EncodeBinary failed on decoded trace: %v", err)
		}
		back, err := ReadAll(NewBinaryDecoder(&buf))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip mismatch: %v vs %v", tr, back)
		}
	})
}

// chunkReader delivers at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// FuzzBinaryDecodeChunked: the decoder reads records in place out of a
// peeked window, and what that window holds depends on how the bytes
// arrive. Whatever the bytes and whatever the chunking, it must decode the
// operations and report the error it does when fed one byte at a time —
// the delivery under which every window is refilled at every byte — and
// so must batches of any size: the ops and the error Next yields one at a
// time.
func FuzzBinaryDecodeChunked(f *testing.F) {
	for _, name := range []string{"golden_v1.bin", "goinstr_racy_counter.bin", "goinstr_clean_chan.bin"} {
		data := goinstrSeed(f, name)
		for _, chunk := range []uint8{1, 2, 5, binaryWindow - 1, binaryWindow, 64} {
			f.Add(data, chunk)
			f.Add(data[:len(data)-1], chunk)
		}
	}
	// Length prefixes that run on: non-canonical, then overflowing.
	f.Add([]byte(binaryMagicPrefix+"\x02\x83\x80\x00\x00\x00\x00"), uint8(3))
	f.Add(append([]byte(binaryMagicPrefix+"\x02"), bytes.Repeat([]byte{0x80}, 12)...), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		want, werr := ReadAll(NewBinaryDecoder(iotest.OneByteReader(bytes.NewReader(data))))
		got, gerr := ReadAll(NewBinaryDecoder(chunkReader{bytes.NewReader(data), int(chunk) + 1}))
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("in %d-byte chunks: %v, %v\nbyte at a time: %v, %v", int(chunk)+1, got, gerr, want, werr)
		}
		for _, size := range []int{1, 2, 7, 512} {
			got, gerr := readBatches(t, NewBinaryDecoder(chunkReader{bytes.NewReader(data), int(chunk) + 1}), size)
			if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("in %d-byte chunks, batches of %d: %v, %v\nNext, byte at a time: %v, %v",
					int(chunk)+1, size, got, gerr, want, werr)
			}
		}
	})
}

func TestFromBytesDeterministic(t *testing.T) {
	data := make([]byte, 200)
	rand.New(rand.NewSource(5)).Read(data)
	a := FromBytes(data)
	b := FromBytes(data)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FromBytes not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no operations decoded from 200 bytes")
	}
}

func TestFromBytesCoversAllKinds(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(data)
	tr := FromBytes(data)
	seen := map[Kind]bool{}
	for _, op := range tr {
		seen[op.Kind] = true
	}
	for _, k := range []Kind{Read, Write, Acquire, Release, Fork, Join} {
		if !seen[k] {
			t.Errorf("kind %v never produced", k)
		}
	}
}
