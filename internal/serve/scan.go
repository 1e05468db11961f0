package serve

import (
	"strconv"
	"sync"
)

// scannedQuery is a /v1/query body as scanQuery reads it: the spec's raw
// bytes, undecoded, and the query's own fields.
type scannedQuery struct {
	spec        []byte // aliases the body
	start, goal []float64
	k           int
}

// scanQuery reads body in the shape json.Marshal writes a QueryRequest:
// one object whose keys are exactly "spec", "start", "goal" and, when
// set, "k", each at most once and unescaped; "spec" an object, returned
// raw; "start" and "goal" non-empty arrays of numbers; "k" an integer;
// nothing but whitespace after the object. It declines everything else —
// case-variant, escaped, duplicate or unknown keys, null, empty arrays,
// a number strconv cannot hold, trailing data — which is left to
// encoding/json.
func scanQuery(body []byte) (q scannedQuery, ok bool) {
	s := scanner{b: body}
	if !s.byte('{') {
		return q, false
	}
	var seenK bool
	for first := true; ; first = false {
		if s.byte('}') {
			break
		}
		if !first && !s.byte(',') {
			return q, false
		}
		key, ok := s.key()
		if !ok {
			return q, false
		}
		switch name := string(key); {
		case name == "spec" && q.spec == nil:
			q.spec, ok = s.object()
		case name == "start" && q.start == nil:
			q.start, ok = s.floats()
		case name == "goal" && q.goal == nil:
			q.goal, ok = s.floats()
		case name == "k" && !seenK:
			q.k, ok = s.int()
			seenK = true
		default:
			return q, false
		}
		if !ok {
			return q, false
		}
	}
	s.space()
	return q, s.i == len(s.b) && q.spec != nil && q.start != nil && q.goal != nil
}

// scanner walks a JSON body; every method skips the whitespace in front
// of what it reads.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte consumes c if it comes next.
func (s *scanner) byte(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads an object key without escapes and the colon after it,
// aliasing the body.
func (s *scanner) key() ([]byte, bool) {
	if !s.byte('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], s.byte(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// object returns the raw bytes of the object that comes next: brackets
// matched outside strings, a string ended by its first unescaped quote.
// That extent is the true one for any valid object, and an object is
// only decoded, and its canonical spec memoized, once encoding/json has
// accepted the whole body.
func (s *scanner) object() ([]byte, bool) {
	if !s.byte('{') {
		return nil, false
	}
	start, depth, inString := s.i-1, 1, false
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		switch {
		case inString && c == '\\':
			s.i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				s.i++
				return s.b[start:s.i], true
			}
		}
	}
	return nil, false
}

// floats reads a non-empty array of numbers into one allocation.
func (s *scanner) floats() ([]float64, bool) {
	if !s.byte('[') {
		return nil, false
	}
	var buf [16]float64
	v := buf[:0]
	for {
		n, ok := s.number()
		f, err := strconv.ParseFloat(string(n), 64)
		if !ok || err != nil {
			return nil, false
		}
		v = append(v, f)
		if s.byte(']') {
			return append(make([]float64, 0, len(v)), v...), true
		}
		if !s.byte(',') {
			return nil, false
		}
	}
}

// int reads a number that fits an int: ParseInt refuses a fraction or
// an exponent, and number the forms JSON does not have.
func (s *scanner) int() (int, bool) {
	n, ok := s.number()
	v, err := strconv.ParseInt(string(n), 10, 0)
	return int(v), ok && err == nil
}

// number reads one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, aliasing the body.
func (s *scanner) number() ([]byte, bool) {
	s.space()
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, false
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil, false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.i++
	}
	return s.i > start
}

// peek returns the next byte, or 0 at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// A spec memo's bounds: entries, and bytes counted as put counts them.
// serve-hot's one spec and a handful of tenants' spellings fit many times
// over; a spec with a large env_text is simply never memoized.
const (
	memoEntries = 64
	memoBytes   = 256 << 10
)

// memoEntry is what one raw spec resolved to.
type memoEntry struct {
	spec Spec // canonical
	key  string
}

// specMemo maps a /v1/query body's raw spec bytes to the canonical spec
// and tenant key they resolved to, so a repeated spec skips decoding,
// Canonical and Key. It is per Server, because Canonical depends on the
// server's GrowRounds. A raw spec is put only after encoding/json,
// Canonical and the pool's tenant lookup all succeeded on its body, so
// no failure is remembered; the memo never holds a tenant, so eviction
// and rebuilds go through the pool as before. When an entry would exceed
// either bound the memo starts over empty.
type specMemo struct {
	mu    sync.Mutex
	m     map[string]memoEntry
	bytes int
}

func (m *specMemo) get(raw []byte) (memoEntry, bool) {
	m.mu.Lock()
	e, ok := m.m[string(raw)]
	m.mu.Unlock()
	return e, ok
}

func (m *specMemo) put(raw []byte, e memoEntry) {
	// The raw spec, the key, and the canonical spec's strings, which the
	// key encodes and so does not exceed.
	size := len(raw) + 2*len(e.key)
	if size > memoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[string(raw)]; ok {
		return
	}
	if m.m == nil || len(m.m) >= memoEntries || m.bytes+size > memoBytes {
		m.m, m.bytes = make(map[string]memoEntry, memoEntries), 0
	}
	m.m[string(raw)] = e
	m.bytes += size
}
