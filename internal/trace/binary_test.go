package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// allKindsTrace exercises every Kind and both small and multi-byte-varint
// operand values.
var allKindsTrace = Trace{
	ForkOp(0, 1),
	Wr(0, 0),
	Rd(1, 300), // multi-byte varint operand
	Acq(1, 0),
	Rel(1, 0),
	VRd(1, 7),
	VWr(0, 7),
	BarrierOp(0, 2),
	BarrierOp(1, 2),
	JoinOp(0, 1),
	SendOp(0, 3),
	RecvOp(1, 3),
	CloseOp(0, 3),
	ALoad(1, 12),
	AStore(0, 12),
	ARMW(1, 400), // multi-byte atomic location
	OnceOp(0, 9),
	Wr(0, 1<<20),   // large var id
	ForkOp(0, 200), // multi-byte tid
	Wr(200, 5),
	JoinOp(0, 200),
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, allKindsTrace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(NewBinaryDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(allKindsTrace, back) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", allKindsTrace, back)
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(binaryMagicPrefix)+1 {
		t.Fatalf("empty trace encodes to %d bytes, want header only (%d)", buf.Len(), len(binaryMagicPrefix)+1)
	}
	if !IsBinary(buf.Bytes()) {
		t.Fatal("IsBinary rejects its own header")
	}
	tr, err := ReadAll(NewBinaryDecoder(&buf))
	if err != nil || len(tr) != 0 {
		t.Fatalf("empty stream: got %v, %v", tr, err)
	}
}

// TestBinaryRoundTripCorpus: every testdata trace survives
// text → Trace → binary → Trace unchanged.
func TestBinaryRoundTripCorpus(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, err := Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(tr); err != nil {
				t.Fatalf("corpus trace infeasible: %v", err)
			}
			var buf bytes.Buffer
			if err := EncodeBinary(&buf, tr); err != nil {
				t.Fatal(err)
			}
			back, err := ReadAll(NewBinaryDecoder(&buf))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr, back) {
				t.Fatalf("round trip mismatch:\n%v\nvs\n%v", tr, back)
			}
		})
	}
}

// TestNewDecoderSniffing: the auto-detecting decoder handles text, binary,
// gzipped and even double-gzipped streams identically.
func TestNewDecoderSniffing(t *testing.T) {
	tr := allKindsTrace
	var text, bin bytes.Buffer
	if err := Encode(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	gz := func(p []byte) []byte {
		var b bytes.Buffer
		w := gzip.NewWriter(&b)
		if _, err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := map[string][]byte{
		"text":             text.Bytes(),
		"binary":           bin.Bytes(),
		"gzip-text":        gz(text.Bytes()),
		"gzip-binary":      gz(bin.Bytes()),
		"gzip-gzip-binary": gz(gz(bin.Bytes())),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			src, err := NewDecoder(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Fatalf("decode mismatch:\n%v\nvs\n%v", tr, got)
			}
		})
	}
}

func TestBinaryDecoderErrors(t *testing.T) {
	encode := func(tr Trace) []byte {
		var b bytes.Buffer
		if err := EncodeBinary(&b, tr); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	good := encode(Trace{Wr(0, 0), Rd(1, 1)})

	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"bad-magic", []byte("VFTZ\x01xxxx"), "bad magic"},
		{"future-version", []byte("VFTb\x03"), "version 3 not supported"},
		{"version-zero", []byte("VFTb\x00"), "version 0 not supported"},
		{"truncated-header", []byte("VF"), "reading header"},
		{"truncated-record", good[:len(good)-1], "op #1"},
		{"oversized-length", append(encode(nil), 0xff, 0xff, 0x01), "out of range"},
		{"zero-length", append(encode(nil), 0x00), "out of range"},
		{"endless-length", append(encode(nil), bytes.Repeat([]byte{0x80}, 11)...), "binary: varint overflows a 64-bit integer"},
		{"unknown-kind", append(encode(nil), 0x03, 0xff, 0x00, 0x00), "unknown kind"},
		{"trailing-bytes", append(encode(nil), 0x04, byte(Read), 0x00, 0x00, 0x00), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadAll(NewBinaryDecoder(bytes.NewReader(tc.data)))
			if err == nil {
				t.Fatal("decode accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The error must be sticky: a second Next returns it again.
		})
	}

	// A future version is not "corrupt": it carries the typed error CLIs
	// and the ingest server turn into "upgrade this reader", and the
	// message itself must say so rather than claim a bad magic.
	t.Run("future-version-typed", func(t *testing.T) {
		_, err := ReadAll(NewBinaryDecoder(bytes.NewReader([]byte("VFTb\x03"))))
		var uve *UnsupportedVersionError
		if !errors.As(err, &uve) {
			t.Fatalf("want *UnsupportedVersionError, got %v", err)
		}
		if uve.Got != 3 || uve.Min != BinaryVersion1 || uve.Max != MaxBinaryVersion {
			t.Fatalf("UnsupportedVersionError = %+v, want Got=3 Min=%d Max=%d",
				uve, BinaryVersion1, MaxBinaryVersion)
		}
		// The rendered message must name both sides of the mismatch: the
		// version byte actually found and the range this build reads.
		for _, want := range []string{
			"version 3",
			fmt.Sprintf("supported %d..%d", BinaryVersion1, MaxBinaryVersion),
			"upgrade this reader",
		} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
		if strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("future version misreported as corruption: %v", err)
		}
		// The sniffing NewDecoder routes any binary version to the binary
		// decoder instead of misparsing the stream as text, so the typed
		// error survives format autodetection too.
		src, derr := NewDecoder(bytes.NewReader([]byte("VFTb\x03")))
		if derr == nil {
			_, derr = ReadAll(src)
		}
		if !errors.As(derr, &uve) {
			t.Fatalf("NewDecoder route: want *UnsupportedVersionError, got %v", derr)
		}
	})

	t.Run("truncation-is-unexpected-eof", func(t *testing.T) {
		d := NewBinaryDecoder(bytes.NewReader(good[:len(good)-1]))
		if _, err := d.Next(); err != nil {
			t.Fatalf("first record should decode: %v", err)
		}
		_, err := d.Next()
		if err == nil || !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
			t.Fatalf("want unexpected EOF in %v", err)
		}
		if _, again := d.Next(); again == nil || again.Error() != err.Error() {
			t.Fatalf("error not sticky: %v then %v", err, again)
		}
	})
}

// readBatches drains src through NextBatch in batches of size, as ReadAll
// drains it through Next, holding every batch to the contract: at least
// one op and at most size without an error, none with one.
func readBatches(tb testing.TB, src Source, size int) (Trace, error) {
	tb.Helper()
	buf := make([]Op, size)
	var out Trace
	for {
		n, err := NextBatch(src, buf)
		if err != nil && n != 0 || err == nil && (n < 1 || n > size) {
			tb.Fatalf("NextBatch into %d slots: %d ops with error %v", size, n, err)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, buf[:n]...)
	}
}

// benchGen builds the shared benchmark trace: n generated operations.
func benchGen(tb testing.TB, n int) Trace {
	cfg := DefaultGenConfig()
	cfg.Ops = n
	tr := Generate(rand.New(rand.NewSource(1)), cfg)
	if len(tr) == 0 {
		tb.Fatal("generator produced an empty trace")
	}
	return tr
}

// decodeAll drains a Source, returning the op count.
func decodeAll(tb testing.TB, src Source) int {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
	}
}

func BenchmarkTextDecode(b *testing.B) {
	tr := benchGen(b, 100_000)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := decodeAll(b, NewTextDecoder(bytes.NewReader(data))); n != len(tr) {
			b.Fatalf("decoded %d ops, want %d", n, len(tr))
		}
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkBinaryDecode(b *testing.B) {
	tr := benchGen(b, 100_000)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := decodeAll(b, NewBinaryDecoder(bytes.NewReader(data))); n != len(tr) {
			b.Fatalf("decoded %d ops, want %d", n, len(tr))
		}
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

var updateTruncations = flag.Bool("update-truncations", false,
	"rewrite testdata/*.truncations from the decoder under test")

// TestBinaryDecodeTruncations pins what the decoder returns — how many
// operations, then which error — for a v1 and a v2 stream cut at every byte
// offset, ending either in EOF or in a read error, against goldens recorded
// from the ReadUvarint/ReadFull decoder this one replaced; and that the
// outcome does not depend on how the bytes arrive: one at a time, in
// halves, with the error riding on the last data, or through a
// caller-supplied bufio.Reader smaller than one decode window — nor on
// whether they are read through Next or in batches.
func TestBinaryDecodeTruncations(t *testing.T) {
	errBoom := errors.New("boom")
	deliveries := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
		{"bufio-16", func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 16) }},
	}
	outcome := func(r io.Reader) (Trace, string) {
		tr, err := ReadAll(NewBinaryDecoder(r))
		if err == nil {
			err = io.EOF // ReadAll folds the clean end into nil
		}
		return tr, fmt.Sprintf("%d\t%v", len(tr), err)
	}
	batchOutcome := func(r io.Reader, size int) string {
		tr, err := readBatches(t, NewBinaryDecoder(r), size)
		if err == nil {
			err = io.EOF
		}
		return fmt.Sprintf("%d\t%v", len(tr), err)
	}
	for _, name := range []string{"golden_v1.bin", "goinstr_racy_counter.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		full, err := ReadAll(NewBinaryDecoder(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		fmt.Fprintf(&got, "ops\t%v\n", full)
		for k := 0; k <= len(data); k++ {
			for _, end := range []error{io.EOF, errBoom} {
				input := func() io.Reader {
					return io.MultiReader(bytes.NewReader(data[:k]), iotest.ErrReader(end))
				}
				// The operations decoded before the error are a prefix of
				// the full stream's: compare them, not just their number.
				tr, want := outcome(input())
				if fmt.Sprint(tr) != fmt.Sprint(full[:len(tr)]) {
					t.Errorf("%s[:%d]: decoded %v, not a prefix of %v", name, k, tr, full)
				}
				fmt.Fprintf(&got, "%d\t%v\t%s\n", k, end, want)
				for _, dl := range deliveries {
					if _, o := outcome(dl.wrap(input())); o != want {
						t.Errorf("%s[:%d] then %v, delivered %s: %q, want %q", name, k, end, dl.name, o, want)
					}
				}
				// The batch path: the same outcome whatever the batch size.
				for _, size := range []int{3, 512} {
					if o := batchOutcome(input(), size); o != want {
						t.Errorf("%s[:%d] then %v, in batches of %d: %q, want %q", name, k, end, size, o, want)
					}
				}
			}
		}
		golden := filepath.Join("testdata", name+".truncations")
		if *updateTruncations {
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: outcomes differ from %s:\n%s", name, golden, lineDiff(string(want), got.String()))
		}
	}
}

// lineDiff lists the lines at which two texts differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
