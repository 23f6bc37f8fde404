package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// decodeNDJSONOracle is the NDJSON decoder the one-pass lineDecoder
// replaced: one json.Unmarshal per line into an Event. The fuzz and table
// tests hold the new decoder to it. The one intended difference is a null
// line, which the oracle decodes to a nil Event and decodeNDJSON rejects.
func decodeNDJSONOracle(body io.Reader, emit func(int, Event) bool, reject func(int, error)) (stopped bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			reject(line, fmt.Errorf("invalid JSON: %v", err))
			continue
		}
		if !emit(line, ev) {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, &ReadError{Line: line + 1, Err: err}
	}
	return false, nil
}

// decoded is one line's outcome: the event it emitted, or a rejection.
type decoded struct {
	line     int
	ev       Event
	rejected bool
}

func collect(decode func(io.Reader, func(int, Event) bool, func(int, error)) (bool, error), body io.Reader) ([]decoded, error) {
	var out []decoded
	_, err := decode(body,
		func(line int, ev Event) bool { out = append(out, decoded{line: line, ev: ev}); return true },
		func(line int, _ error) { out = append(out, decoded{line: line, rejected: true}) })
	return out, err
}

// checkAgainstOracle requires decodeNDJSON to emit and reject the lines
// the oracle does, with deep-equal events, except that a line the oracle
// decodes to a nil Event (null) must be rejected.
func checkAgainstOracle(t *testing.T, body string) {
	t.Helper()
	got, gotErr := collect(decodeNDJSON, strings.NewReader(body))
	want, wantErr := collect(decodeNDJSONOracle, strings.NewReader(body))
	for i := range want {
		if !want[i].rejected && want[i].ev == nil {
			want[i] = decoded{line: want[i].line, rejected: true}
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: read error %v, oracle %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got    %#v\n oracle %#v", body, got, want)
	}
}

// decodeEdgeCases are the lines the fuzz corpus is seeded with: escapes,
// surrogates, invalid UTF-8, number edges, duplicate keys, nested values
// and null.
var decodeEdgeCases = []string{
	`{"a":"x","b":1.5,"c":true,"d":false,"e":null}`,
	` {} `, `{}`, `{ }`, "\t{\"a\" :\r\"b\" , \"c\":1}\v",
	`null`, ` null `, `nul`, `true`, `1`, `"s"`, `[]`, `[{"a":1}]`, ``, `{`, `}`, `{"a"}`, `{"a":}`,
	`{"a":1,}`, `{,"a":1}`, `{"a":1 "b":2}`, `{"a":1}x`, `{"a":1}{}`, `{"a":1}` + "\x00", `{'a':1}`, `{a:1}`,
	`{"esc":"\"\\\/\b\f\n\r\t"}`, `{"u":"\u0041\u00e9\u4e2d\u0000"}`, `{"bad":"\x"}`, `{"bad":"\'"}`, `{"bad":"\u12"}`, `{"bad":"\u12G4"}`,
	`{"pair":"\ud83d\ude00"}`, `{"lone":"\ud83d"}`, `{"lone":"\ude00x"}`, `{"hi":"\ud83d\u0041"}`, `{"hihi":"\ud83d\ud83d\ude00"}`,
	`{"cut":"\ud83d\u"}`, `{"k\u00e9y":1e2}`, `{"\ud800":1}`,
	"{\"utf8\":\"a\xffb\xc3\xa9\xed\xa0\x80\xf0\x9f\x98\x80\xc3\"}", "{\"ke\xffy\":\"v\"}", "{\"ctl\":\"a\x01b\"}", "{\"tab\":\"a\tb\"}",
	"{\"a\":\"x\"}\xff", "\xef\xbb\xbf{}", "{\"line\":\"\u2028\u2029\"}",
	`{"n":0}`, `{"n":-0}`, `{"n":01}`, `{"n":+1}`, `{"n":.5}`, `{"n":1.}`, `{"n":1.5e}`, `{"n":1e+}`, `{"n":0x10}`, `{"n":NaN}`,
	`{"n":Infinity}`, `{"n":-}`, `{"n":--1}`, `{"n":1e400}`, `{"n":-1e400}`, `{"n":1e-400}`, `{"n":1E+2}`, `{"n":2.5e-08}`,
	`{"n":123456789012345678901234567890}`, `{"n":1_000}`, `{"n":0.1e1}`, `{"n":-0.0e-0}`,
	`{"d":1,"d":"two"}`, `{"d":{"x":1},"d":[2]}`, `{"d":null,"d":true}`,
	`{"job_id":{"x":[1,"}",{"y":null}]},"a":"b"}`, `{"job_id":[1,2,3]}`, `{"job_id":{"x":1e400}}`, `{"job_id":{"x":01}}`,
	`{"job_id":[1,2}`, `{"job_id":{"x":"\u"}}`, `{"job_id":[[]]]}`, `{"job_id":["a\"]"]}`, `{"job_id":[`,
	`{"t":tru}`, `{"t":trueX}`, `{"f":fals}`, `{"z":nulll}`,
	`{"a":"b"}` + "\r",
}

func TestDecodeNDJSONMatchesOracle(t *testing.T) {
	for _, line := range decodeEdgeCases {
		checkAgainstOracle(t, line+"\n")
	}
	deep := `{"job_id":` + strings.Repeat("[", maxNestedDepth) + strings.Repeat("]", maxNestedDepth) + "}"
	checkAgainstOracle(t, deep+"\n")
	deeper := `{"job_id":` + strings.Repeat("[", maxNestedDepth+1) + strings.Repeat("]", maxNestedDepth+1) + "}"
	checkAgainstOracle(t, deeper+"\n")
	checkAgainstOracle(t, string(bytes.Join(paiNDJSON(t, 200, 3), []byte("\n"))))
}

// TestNullLineRejected: a null line is a rejected line, not an empty
// event; {} stays accepted.
func TestNullLineRejected(t *testing.T) {
	s, err := New(Config{Spec: Spec{Numeric: []NumericSpec{{Field: "util"}}}, WindowSize: 100, MineBatch: 100, MineInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer stopServer(t, s)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader("null\n{}\n  null  \n{\"util\":1}\n")))
	var res ingestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || res.Accepted != 2 || res.Rejected != 2 {
		t.Fatalf("status %d, result %+v; want 200 with 2 accepted and 2 rejected", rec.Code, res)
	}
	if len(res.Errors) != 2 || res.Errors[0].Line != 1 || res.Errors[1].Line != 3 {
		t.Fatalf("errors %+v; want lines 1 and 3", res.Errors)
	}
	if got := s.metrics.rejected.Load(); got != 2 {
		t.Fatalf("rejected counter %d, want 2", got)
	}
}

// walRecordSpec declares the fields fuzzEvent puts floats and nested
// values under, so the events it builds pass validate.
var walRecordSpec = Spec{
	Numeric: []NumericSpec{{Field: "util"}, {Field: "gpu"}, {Field: "x"}},
	Skip:    []string{"meta"},
}

// fuzzEvent builds an Event from fuzz bytes: a run of fields, each a tag
// byte, a length-prefixed key (any bytes, invalid UTF-8 included) and a
// value — a length-prefixed string, a float64 from 8 bytes under a numeric
// key, a bool, null, or nested's JSON value under the Skip key.
func fuzzEvent(data, nested []byte) Event {
	ev := Event{}
	take := func() []byte {
		if len(data) == 0 {
			return nil
		}
		n := min(int(data[0])%24, len(data)-1)
		s := data[1 : 1+n]
		data = data[1+n:]
		return s
	}
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		key := string(take())
		switch tag % 5 {
		case 0:
			ev[key] = string(take())
		case 1:
			var b [8]byte
			data = data[copy(b[:], data):]
			ev[[]string{"util", "gpu", "x"}[int(tag/5)%3]] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		case 2:
			ev[key] = tag&8 != 0
		case 3:
			ev[key] = nil
		case 4:
			var v any
			if json.Unmarshal(nested, &v) == nil {
				ev["meta"] = v
			}
		}
	}
	return ev
}

// FuzzWALRecord: for any event, the record encoder fails exactly when
// json.Marshal does; otherwise its bytes equal json.Marshal's, and
// decoding them yields the event with its strings coerced to valid UTF-8,
// as encoding/json coerces them. Every event that passes validate encodes.
// One encoder serves every input, so its cached key order is exercised
// against key sets that change and that repeat.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte("\x00\x04user\x05alice\x01\x00\x00\x00\x00\x00\x00\xf8\x3f\x02\x03ok!\x03\x01z"), []byte(`{"a":[1,"b",null]}`))
	f.Add([]byte("\x00\x03<&>\x06\xff\xfe\x00\x1f\"\\\x06\x00\x00\x00\x00\x00\x00\xf0\x7f"), []byte(`[]`))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x00\x80\x06\x01\x8d\xed\xb5\xa0\xf7\xc6\xb0\x3e\x0b\x00\x00\x00\x00\x00\x00\x35\x44"), []byte(`1`))
	f.Add([]byte("\x00\x02\xe2\x80\x06\xe2\x80\xa8\xe2\x80\xa9\x00\x01\xff\x01\xfe\x00\x03\xed\xa0\x80\x00"), []byte(`{"z":1e-7,"a":"\u2028"}`))
	idx := newSpecIndex(walRecordSpec)
	var enc recordEncoder
	f.Fuzz(func(t *testing.T, data, nested []byte) {
		ev := fuzzEvent(data, nested)
		got, err := enc.encode(ev)
		want, wantErr := json.Marshal(ev)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("record encoder error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if idx.validate(ev) == nil {
				t.Fatalf("a valid event failed to encode: %v", err)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record mismatch:\n got  %s\n want %s", got, want)
		}
		var dec lineDecoder
		back, err := dec.decode(got)
		if err != nil {
			t.Fatalf("record %s does not decode: %v", got, err)
		}
		coerced := Event{}
		keys := make([]string, 0, len(ev))
		for k := range ev {
			keys = append(keys, k)
		}
		slices.Sort(keys) // the record's order: a later key wins a collision
		for _, k := range keys {
			v := ev[k]
			if s, ok := v.(string); ok {
				v = validUTF8(s)
			}
			coerced[validUTF8(k)] = v
		}
		if !reflect.DeepEqual(back, coerced) {
			t.Fatalf("record %s decodes to %#v, want %#v", got, back, coerced)
		}
	})
}

func TestRecordEncoderMatchesMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 2.5e-8, 1e20, 1e21, 123456789e13, -1e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1.0000000000000002, 123.456, 1e100, 1e-100}
	for _, f := range floats {
		ev := Event{"util": f, "s": "<a & b>\u2028\x7f\x1f", "b": true, "n": nil, "meta": map[string]any{"z": []any{1.5, "x"}, "a": nil}}
		got, err := (&recordEncoder{}).encode(ev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("float %v:\n got  %s\n want %s", f, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (&recordEncoder{}).encode(Event{"util": bad}); err == nil {
			t.Errorf("%v encoded without error", bad)
		}
	}
}

// TestValidUTF8MatchesJSON: CSV coercion is exactly the JSON round trip.
func TestValidUTF8MatchesJSON(t *testing.T) {
	for _, s := range []string{"", "plain", "a\xffb", "\xff\xfe", "\xed\xa0\x80", "\xc3", "\xf0\x9f\x98", "é\x80中"} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if got := validUTF8(s); got != want {
			t.Errorf("validUTF8(%q) = %q, want %q", s, got, want)
		}
	}
}

// paiBody is a 50-event PAI NDJSON request body, the POST size the
// ingest-steady workload sends.
func paiBody(b *testing.B) []byte {
	b.Helper()
	return ndjsonBody(paiNDJSON(b, 50, 1)).Bytes()
}

func benchDecode(b *testing.B, decode func(io.Reader, func(int, Event) bool, func(int, error)) (bool, error)) {
	body := paiBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(bytes.NewReader(body),
			func(int, Event) bool { return true },
			func(line int, err error) { b.Fatalf("line %d: %v", line, err) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*50), "ns/event")
}

// BenchmarkDecodeNDJSON decodes one 50-event PAI POST body.
func BenchmarkDecodeNDJSON(b *testing.B) { benchDecode(b, decodeNDJSON) }

func BenchmarkDecodeNDJSONOracle(b *testing.B) { benchDecode(b, decodeNDJSONOracle) }

func benchRecord(b *testing.B, encode func(Event) ([]byte, error)) {
	var events []Event
	for _, line := range paiNDJSON(b, 50, 1) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			b.Fatal(err)
		}
		events = append(events, ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecord encodes the WAL records of PAI events one after
// another, as Enqueue does.
func BenchmarkWALRecord(b *testing.B) {
	var enc recordEncoder
	benchRecord(b, enc.encode)
}

func BenchmarkWALRecordOracle(b *testing.B) {
	benchRecord(b, func(ev Event) ([]byte, error) { return json.Marshal(ev) })
}

// BenchmarkServeIngest posts a 50-event PAI NDJSON body through the
// ingest handler of a server logging to a WAL with interval fsync: decode,
// validate, record encode, WAL append and enqueue, then waits for the
// mining loop to take all 50 events, which it never mines. The loop
// observes events while the handler is still enqueueing, so the wait is
// timed: with it outside the timer, allocs/op counted whatever share of
// the loop's work the scheduler happened to overlap with the POST.
func BenchmarkServeIngest(b *testing.B) {
	body := paiBody(b)
	s, err := New(Config{
		Spec:         PAISpec(),
		WindowSize:   5000,
		MineBatch:    math.MaxInt32,
		MineInterval: 24 * time.Hour,
		WALDir:       b.TempDir(),
		Fsync:        "interval",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			b.Fatal(err)
		}
	}()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		for len(s.queue) > 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.StopTimer() // the deferred Stop mines the window: not ingest
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*50), "ns/event")
}
