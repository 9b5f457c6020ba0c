package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"engage/internal/resource"
)

// Reader reads one JSON document in one pass, straight into
// specifications, resource values and the request structs that carry
// them: no token stream, no map[string]any tree, no second parse. It is
// the counterpart of Writer.
//
// It accepts exactly what encoding/json accepts, and decodes what
// encoding/json decoded into the forms specifications were once read
// through (kept in reader_test.go as the oracle): member names match
// case-insensitively, the last of duplicate members wins — an object
// read into a member that already holds one merges into it — unknown
// members are skipped, null leaves a string as it is and empties a map
// or pointer, strings unescape with invalid UTF-8 and lone surrogates
// as U+FFFD, and numbers in values must be integral.
//
// Errors keep encoding/json's precedence: a syntax error anywhere in
// the document, then the first error of a nested specification, then
// the first type mismatch, then the first semantic error (an empty id,
// a bad value) in document order. A syntax error is worded by
// encoding/json itself, from the rejected bytes; a type mismatch is
// worded as its UnmarshalTypeError, naming the decoding forms the
// messages have always named.
type Reader struct {
	data  []byte
	off   int
	depth int
	// bad is set at the first syntax error; nothing after it is read.
	bad bool
	// nested is the first error of a specification read inside a
	// request: encoding/json stopped at it.
	nested error
	// saved is the first type mismatch of the document being read;
	// reading goes on past it, as encoding/json's did.
	saved error
	// at is where a type mismatch is reported: the struct and member
	// the value being read stands in.
	at at
	// buf is scratch for unescaped strings; vals for list elements, a
	// stack shared by nested lists.
	buf  []byte
	vals []resource.Value
}

// at names a member for a type mismatch: its struct, and its path of
// member names from the document's outermost struct.
type at struct{ strct, path, field string }

// member is the path of the member at names.
func (a at) member() string {
	switch {
	case a.path == "":
		return a.field
	case a.field == "":
		return a.path
	}
	return a.path + "." + a.field
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var readers = sync.Pool{New: func() any { return new(Reader) }}

func newReader(data []byte) *Reader {
	r := readers.Get().(*Reader)
	r.data = data
	return r
}

// release hands the reader's scratch on to the next reader, unless a
// large document grew it.
func (r *Reader) release() {
	buf, vals := r.buf[:0], r.vals[:0]
	clear(vals[:cap(vals)])
	if cap(buf) > 64<<10 {
		buf = nil
	}
	*r = Reader{buf: buf, vals: vals}
	readers.Put(r)
}

// finish checks that nothing but space follows the document and
// returns the document's error by precedence; err is the error of the
// specification read at the top, if one was.
func (r *Reader) finish(err error, stream bool) error {
	r.space()
	if r.off < len(r.data) {
		r.fail()
	}
	switch {
	case r.bad:
		return syntaxError(r.data, stream)
	case r.nested != nil:
		return r.nested
	case r.saved != nil:
		return r.saved
	}
	return err
}

// syntaxError is the error encoding/json reports for data, which the
// reader found malformed: json.Decoder's for the first value of a
// request body when stream is set, else json.Unmarshal's (which also
// rejects whatever follows the first value). The reader and
// encoding/json agree on where a document goes wrong; only the wording
// is borrowed, on the rejected path.
func syntaxError(data []byte, stream bool) error {
	var v json.RawMessage
	if stream {
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
			return err
		}
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	return errors.New("spec: malformed JSON")
}

// A Decodable is a value the Reader decodes: a request body.
type Decodable interface {
	// DecodeJSON reads one JSON value into the receiver.
	DecodeJSON(r *Reader)
}

// ReadRequest decodes body, one JSON value and nothing after it but
// space, into v, with the errors json.Decoder.Decode reported for it
// ("EOF" for an empty body, "unexpected EOF" for a cut one). Anything
// else after the value is a syntax error, worded as json.Unmarshal
// words it.
func ReadRequest(body []byte, v Decodable) error {
	r := newReader(body)
	defer r.release()
	v.DecodeJSON(r)
	return r.finish(nil, true)
}

// UnmarshalJSON implements json.Unmarshaler for Partial, through the
// Reader.
func (p *Partial) UnmarshalJSON(data []byte) error {
	r := newReader(data)
	defer r.release()
	err := r.partial(p)
	return r.finish(err, false)
}

// UnmarshalJSON implements json.Unmarshaler for Full, through the
// Reader.
func (f *Full) UnmarshalJSON(data []byte) error {
	r := newReader(data)
	defer r.release()
	err := r.full(f)
	return r.finish(err, false)
}

// --- syntax ---

// fail records a syntax error and stops the reader.
func (r *Reader) fail() {
	r.bad = true
	r.off = len(r.data)
}

func (r *Reader) space() {
	for r.off < len(r.data) {
		switch r.data[r.off] {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return
		}
	}
}

// peek skips space and returns the next byte, 0 at the end.
func (r *Reader) peek() byte {
	r.space()
	if r.off < len(r.data) {
		return r.data[r.off]
	}
	return 0
}

// open steps into an object or array.
func (r *Reader) open() {
	r.off++
	if r.depth++; r.depth > maxDepth {
		r.fail()
	}
}

// members reads the object at the reader, calling member with each
// member's name, unescaped, with the reader at the member's value;
// member reads the value. The name is valid until the next read.
func (r *Reader) members(member func(name []byte)) {
	r.open()
	if r.peek() == '}' {
		r.off++
		r.depth--
		return
	}
	for !r.bad {
		if r.peek() != '"' {
			r.fail()
			return
		}
		name := r.quoted()
		if r.peek() != ':' {
			r.fail()
			return
		}
		r.off++
		member(name)
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			r.depth--
			return
		default:
			r.fail()
		}
	}
}

// elements reads the array at the reader, calling elem with the reader
// at each element; elem reads it.
func (r *Reader) elements(elem func(i int)) {
	r.open()
	if r.peek() == ']' {
		r.off++
		r.depth--
		return
	}
	for i := 0; !r.bad; i++ {
		elem(i)
		switch r.peek() {
		case ',':
			r.off++
		case ']':
			r.off++
			r.depth--
			return
		default:
			r.fail()
		}
	}
}

// skip reads past one value of any kind.
func (r *Reader) skip() {
	switch c := r.peek(); {
	case c == '{':
		r.members(func([]byte) { r.skip() })
	case c == '[':
		r.elements(func(int) { r.skip() })
	case c == '"':
		r.quoted()
	case c == 't' || c == 'f':
		r.boolean()
	case c == 'n':
		r.literal("null")
	case c == '-' || isDigit(c):
		r.number()
	default:
		r.fail()
	}
}

// Raw reads past one value and returns a copy of its bytes.
func (r *Reader) Raw() []byte {
	r.space()
	start := r.off
	r.skip()
	if r.bad {
		return nil
	}
	return bytes.Clone(r.data[start:r.off])
}

func (r *Reader) literal(word string) {
	if !bytes.HasPrefix(r.data[r.off:], []byte(word)) {
		r.fail()
		return
	}
	r.off += len(word)
}

// boolean reads true or false.
func (r *Reader) boolean() bool {
	if r.data[r.off] == 't' {
		r.literal("true")
		return true
	}
	r.literal("false")
	return false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads a number and returns its text.
func (r *Reader) number() []byte {
	d, start := r.data, r.off
	i := start
	digits := func() bool {
		n := i
		for i < len(d) && isDigit(d[i]) {
			i++
		}
		return i > n
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		r.fail()
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.fail()
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.fail()
			return nil
		}
	}
	r.off = i
	return d[start:i]
}

// quoted reads a string and returns its bytes unescaped: a slice of the
// document where nothing needs unescaping, else of the reader's
// scratch, valid until the next read.
func (r *Reader) quoted() []byte {
	d := r.data
	start := r.off + 1
	ascii := true
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			if s := d[start:i]; ascii || utf8.Valid(s) {
				r.off = i + 1
				return s
			}
			return r.unescape(start)
		case c == '\\':
			return r.unescape(start)
		case c < 0x20:
			r.fail()
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.fail()
	return nil
}

// unescape reads the string whose contents start at start into the
// scratch, as encoding/json unquotes: escapes decoded, a surrogate pair
// joined, a lone surrogate and each byte of invalid UTF-8 as U+FFFD.
func (r *Reader) unescape(start int) []byte {
	d, b := r.data, r.buf[:0]
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			r.off, r.buf = i+1, b
			return b
		case c == '\\':
			if i+1 == len(d) {
				r.fail()
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b', 'f', 'n', 'r', 't':
				b = append(b, "\b\f\n\r\t"[strings.IndexByte("bfnrt", e)])
			case 'u':
				rr := hex4(d[i:])
				if rr < 0 {
					r.fail()
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, hex4(d[i:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.fail()
				return nil
			}
			i += 2
		case c < 0x20:
			r.fail()
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, unicode.ReplacementChar)
			} else {
				b = append(b, d[i:i+size]...)
			}
			i += size
		}
	}
	r.fail()
	return nil
}

// hex4 reads the \uXXXX escape s starts with; -1 if it does not.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var n rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		n = n<<4 | rune(c)
	}
	return n
}

// --- type mismatches ---

// typeError is a JSON value of the wrong kind for where it stands,
// worded as encoding/json's UnmarshalTypeError.
type typeError struct {
	value, typ string
	at         at
}

func (e *typeError) Error() string {
	if e.at.strct != "" || e.at.field != "" {
		return "json: cannot unmarshal " + e.value + " into Go struct field " + e.at.strct + "." + e.at.member() + " of type " + e.typ
	}
	return "json: cannot unmarshal " + e.value + " into Go value of type " + e.typ
}

// kindOf names the kind of the value starting with c, as
// UnmarshalTypeError does.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// mismatch records a value of kind value where typ was wanted, at the
// reader's member; the first one of a document stands.
func (r *Reader) mismatch(value, typ string) {
	if r.saved == nil {
		r.saved = &typeError{value, typ, r.at}
	}
}

// wrong records the value at the reader, starting with c, as not of
// type typ and reads past it. A c that starts no value is a syntax
// error, which outranks the mismatch.
func (r *Reader) wrong(c byte, typ string) {
	r.mismatch(kindOf(c), typ)
	r.skip()
}

// --- request members ---

// Object reads an object into a struct of the Go type typ ("pkg.Name"),
// whose members are fields: member is called with the field a member's
// name matches — exactly, else case-insensitively — and reads its
// value; members matching no field are skipped. null leaves the struct
// as it is.
func (r *Reader) Object(typ string, fields []string, member func(field string)) {
	switch c := r.peek(); c {
	case '{':
	case 'n':
		r.literal("null")
		return
	default:
		r.wrong(c, typ)
		return
	}
	outer := r.at
	inner := at{strct: typ[strings.IndexByte(typ, '.')+1:], path: outer.member()}
	r.members(func(name []byte) {
		f := fieldOf(name, fields)
		if f == "" {
			r.skip()
			return
		}
		r.at = inner
		r.at.field = f
		member(f)
	})
	r.at = outer
}

// fieldOf is the field name matches, exactly or else as bytes.EqualFold
// matches (encoding/json's rule); "" if none.
func fieldOf(name []byte, fields []string) string {
	for _, f := range fields {
		if string(name) == f {
			return f
		}
	}
	for _, f := range fields {
		if bytes.EqualFold(name, []byte(f)) {
			return f
		}
	}
	return ""
}

// String reads a string member.
func (r *Reader) String(dst *string) {
	switch c := r.peek(); c {
	case '"':
		*dst = string(r.quoted())
	case 'n':
		r.literal("null")
	default:
		r.wrong(c, "string")
	}
}

// Bool reads a bool member.
func (r *Reader) Bool(dst *bool) {
	switch c := r.peek(); c {
	case 't', 'f':
		*dst = r.boolean()
	case 'n':
		r.literal("null")
	default:
		r.wrong(c, "bool")
	}
}

// Int reads an int member.
func (r *Reader) Int(dst *int) {
	if n, ok := r.integer("int", strconv.IntSize); ok {
		*dst = int(n)
	}
}

// OptionalInt64 reads an *int64 member: null is nil.
func (r *Reader) OptionalInt64(dst **int64) {
	if r.peek() == 'n' {
		r.literal("null")
		*dst = nil
		return
	}
	if *dst == nil {
		*dst = new(int64)
	}
	if n, ok := r.integer("int64", 64); ok {
		**dst = n
	}
}

// integer reads a number member of the integer type typ, bits wide.
func (r *Reader) integer(typ string, bits int) (int64, bool) {
	switch c := r.peek(); {
	case c == '-' || isDigit(c):
		num := r.number()
		if r.bad {
			return 0, false
		}
		n, err := strconv.ParseInt(string(num), 10, bits)
		if err != nil {
			r.mismatch("number "+string(num), typ)
			return 0, false
		}
		return n, true
	case c == 'n':
		r.literal("null")
	default:
		r.wrong(c, typ)
	}
	return 0, false
}

// Partial reads a partial specification member: null is nil. Its
// error, if any, is the request's, as an UnmarshalJSON error stopped
// encoding/json; a type mismatch in it is reported at the member.
func (r *Reader) Partial(dst **Partial) {
	if r.peek() == 'n' {
		r.literal("null")
		*dst = nil
		return
	}
	if *dst == nil {
		*dst = new(Partial)
	}
	outer := r.at
	r.at = at{}
	err := r.partial(*dst)
	r.at = outer
	if err != nil && r.nested == nil {
		if te, ok := err.(*typeError); ok && outer != (at{}) {
			moved := *te
			moved.at = at{outer.strct, outer.member(), te.at.member()}
			err = &moved
		}
		r.nested = err
	}
}

// --- specifications ---

// The decoding forms' type and member names, as type mismatches name
// them.
var (
	partialFields  = []string{"id", "key", "inside", "config_port"}
	instanceFields = []string{"id", "key", "machine", "inside", "config_port", "input_ports", "output_ports", "dependencies"}
	linkFields     = []string{"id"}
	depFields      = []string{"class", "id", "port_map", "reverse_port_map"}
)

const valuesType = "map[string]interface {}"

var (
	errEmptyID = errors.New("spec: instance with empty id")
	errNull    = errors.New("null values not supported")
	errSecret  = errors.New("__secret__ payload must be a string")
)

// badPort is a port whose value does not convert; a document with any
// is rejected with its first, in document order.
type badPort struct {
	field, port string
	err         error
}

// setBad records err for port of field, replacing what an earlier
// member of the same name recorded.
func setBad(bad *[]badPort, field, port string, err error) {
	if len(*bad) > 0 {
		*bad = slices.DeleteFunc(*bad, func(b badPort) bool { return b.field == field && b.port == port })
	}
	if err != nil {
		*bad = append(*bad, badPort{field, port, err})
	}
}

// instances reads a specification, an array of instances of the form
// typ names or null, each by elem, and returns its own error: the first
// type mismatch in it, else the first instance's semantic error.
func instances[T any](r *Reader, typ string, elem func() (T, error)) ([]T, error) {
	outer := r.saved
	r.saved = nil
	var out []T
	var first error
	switch c := r.peek(); c {
	case '[':
		r.elements(func(int) {
			inst, err := elem()
			if first == nil {
				first = err
			}
			out = append(out, inst)
		})
	case 'n':
		r.literal("null")
	default:
		r.wrong(c, typ)
	}
	if r.saved != nil {
		first = r.saved
	}
	r.saved = outer
	return out, first
}

func (r *Reader) partial(p *Partial) (err error) {
	p.Instances, err = instances(r, "[]spec.partialInstanceJSON", r.partialInstance)
	return err
}

func (r *Reader) partialInstance() (*PartialInstance, error) {
	inst := &PartialInstance{}
	var key string
	var bad []badPort
	r.Object("spec.partialInstanceJSON", partialFields, func(field string) {
		switch field {
		case "id":
			r.String(&inst.ID)
		case "key":
			r.String(&key)
		case "inside":
			r.inside(&inst.Inside)
		case "config_port":
			r.values(&inst.Config, field, &bad)
		}
	})
	inst.Key = resource.ParseKey(key)
	if len(inst.Config) == 0 {
		inst.Config = nil
	}
	switch {
	case inst.ID == "":
		return inst, errEmptyID
	case len(bad) > 0:
		return inst, fmt.Errorf("spec: instance %q: port %q: %v", inst.ID, bad[0].port, bad[0].err)
	}
	return inst, nil
}

// inside reads an instance's container, {"id": …} or null.
func (r *Reader) inside(dst *string) {
	if r.peek() == 'n' {
		r.literal("null")
		*dst = ""
		return
	}
	r.Object("spec.linkJSON", linkFields, func(string) { r.String(dst) })
}

// values reads an object of port values into *m, merging into what it
// holds; null empties it. A value that does not convert is recorded in
// bad under field.
func (r *Reader) values(m *map[string]resource.Value, field string, bad *[]badPort) {
	switch c := r.peek(); c {
	case '{':
		if *m == nil {
			*m = make(map[string]resource.Value)
		}
		r.members(func(name []byte) {
			port := string(name)
			v, err := r.value()
			(*m)[port] = v
			if err != nil || len(*bad) > 0 {
				setBad(bad, field, port, err)
			}
		})
	case 'n':
		r.literal("null")
		*m = nil
		if len(*bad) > 0 {
			*bad = slices.DeleteFunc(*bad, func(b badPort) bool { return b.field == field })
		}
	default:
		r.wrong(c, valuesType)
	}
}

// value reads a resource value: strings, integral numbers, bools,
// objects as structs (or a secret, {"__secret__": "…"}) and arrays as
// lists. The error is why the value does not convert.
func (r *Reader) value() (resource.Value, error) {
	switch c := r.peek(); {
	case c == '"':
		return resource.Str(string(r.quoted())), nil
	case c == 't' || c == 'f':
		return resource.BoolV(r.boolean()), nil
	case c == 'n':
		r.literal("null")
		return resource.Value{}, errNull
	case c == '{':
		return r.structValue()
	case c == '[':
		return r.listValue()
	case c == '-' || isDigit(c):
		return r.intValue()
	}
	r.fail()
	return resource.Value{}, nil
}

// intValue reads a number as encoding/json read it into an interface
// (a float64) and converts that to an int.
func (r *Reader) intValue() (resource.Value, error) {
	num := r.number()
	if r.bad {
		return resource.Value{}, nil
	}
	if n, ok := smallInt(num); ok {
		return resource.IntV(n), nil
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		r.mismatch("number "+string(num), "float64")
		return resource.Value{}, nil
	}
	if f != math.Trunc(f) {
		return resource.Value{}, fmt.Errorf("non-integer number %v not supported", f)
	}
	return resource.IntV(int(f)), nil
}

// smallInt reads an integer of at most 15 digits, which a float64
// holds exactly.
func smallInt(num []byte) (int, bool) {
	neg := len(num) > 0 && num[0] == '-'
	if neg {
		num = num[1:]
	}
	if len(num) == 0 || len(num) > 15 {
		return 0, false
	}
	n := 0
	for _, c := range num {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// structValue reads an object value: a struct of its members, or the
// secret {"__secret__": "…"} when that is its one member.
func (r *Reader) structValue() (resource.Value, error) {
	fields := make(map[string]resource.Value)
	var bad []badPort
	r.members(func(name []byte) {
		n := string(name)
		v, err := r.value()
		fields[n] = v
		if err != nil || len(bad) > 0 {
			setBad(&bad, "", n, err)
		}
	})
	if s, ok := fields["__secret__"]; ok && len(fields) == 1 {
		if s.Kind != resource.KindString {
			return resource.Value{}, errSecret
		}
		return resource.SecretV(s.Str), nil
	}
	if len(bad) > 0 {
		return resource.Value{}, fmt.Errorf("field %q: %v", bad[0].port, bad[0].err)
	}
	return resource.StructV(fields), nil
}

// listValue reads an array value as a list.
func (r *Reader) listValue() (resource.Value, error) {
	base := len(r.vals)
	var first error
	r.elements(func(i int) {
		v, err := r.value()
		if err != nil && first == nil {
			first = fmt.Errorf("element %d: %v", i, err)
		}
		r.vals = append(r.vals, v)
	})
	elems := make([]resource.Value, len(r.vals)-base)
	copy(elems, r.vals[base:])
	clear(r.vals[base:])
	r.vals = r.vals[:base]
	if first != nil {
		return resource.Value{}, first
	}
	return resource.ListV(elems...), nil
}

// depJSON is one dependency link as read, before its class is checked.
// It has the size and shape of the form encoding/json decoded into, so
// that a repeated "dependencies" member reuses and grows it the same
// way.
type depJSON struct {
	class, target           string
	portMap, reversePortMap map[string]string
}

func (r *Reader) full(f *Full) (err error) {
	f.Instances, err = instances(r, "[]spec.instanceJSON", r.instance)
	return err
}

// valueLabels name an instance's value members in its errors.
var valueLabels = map[string]string{"config_port": "config", "input_ports": "input", "output_ports": "output"}

func (r *Reader) instance() (*Instance, error) {
	inst := &Instance{}
	var key string
	var bad []badPort
	var deps []depJSON
	r.Object("spec.instanceJSON", instanceFields, func(field string) {
		switch field {
		case "id":
			r.String(&inst.ID)
		case "key":
			r.String(&key)
		case "machine":
			r.String(&inst.Machine)
		case "inside":
			r.inside(&inst.Inside)
		case "config_port":
			r.values(&inst.Config, field, &bad)
		case "input_ports":
			r.values(&inst.Input, field, &bad)
		case "output_ports":
			r.values(&inst.Output, field, &bad)
		case "dependencies":
			deps = r.deps(deps)
		}
	})
	inst.Key = resource.ParseKey(key)
	for _, m := range []*map[string]resource.Value{&inst.Config, &inst.Input, &inst.Output} {
		if len(*m) == 0 {
			*m = nil
		}
	}
	if len(bad) > 0 {
		return inst, fmt.Errorf("spec: instance %q %s: port %q: %v", inst.ID, valueLabels[bad[0].field], bad[0].port, bad[0].err)
	}
	if len(deps) > 0 {
		inst.Deps = make([]DepLink, len(deps))
	}
	for i, d := range deps {
		var class resource.DependencyClass
		switch d.class {
		case "inside":
			class = resource.DepInside
		case "environment":
			class = resource.DepEnv
		case "peer":
			class = resource.DepPeer
		default:
			return inst, fmt.Errorf("spec: instance %q: unknown dependency class %q", inst.ID, d.class)
		}
		inst.Deps[i] = DepLink{Class: class, Target: d.target, PortMap: d.portMap, ReversePortMap: d.reversePortMap}
	}
	return inst, nil
}

// deps reads a "dependencies" member into the links an earlier one
// left, as encoding/json decodes an array into a slice: element i into
// the slice's element i, grown one at a time, the rest cut off; null is
// nil.
func (r *Reader) deps(deps []depJSON) []depJSON {
	switch c := r.peek(); c {
	case '[':
	case 'n':
		r.literal("null")
		return nil
	default:
		r.wrong(c, "[]spec.depLinkJSON")
		return deps
	}
	n := 0
	r.elements(func(i int) {
		if i >= cap(deps) {
			deps = append(deps, depJSON{})
		} else if i >= len(deps) {
			deps = deps[:i+1]
		}
		n = i + 1
		d := &deps[i]
		r.Object("spec.depLinkJSON", depFields, func(field string) {
			switch field {
			case "class":
				r.String(&d.class)
			case "id":
				r.String(&d.target)
			case "port_map":
				r.portMap(&d.portMap)
			case "reverse_port_map":
				r.portMap(&d.reversePortMap)
			}
		})
	})
	if n == 0 {
		return []depJSON{}
	}
	return deps[:n]
}

// portMap reads a port map, merging into what *m holds; null empties
// it, and a null entry maps to "".
func (r *Reader) portMap(m *map[string]string) {
	switch c := r.peek(); c {
	case '{':
		if *m == nil {
			*m = make(map[string]string)
		}
		r.members(func(name []byte) {
			k := string(name)
			var v string
			r.String(&v)
			(*m)[k] = v
		})
	case 'n':
		r.literal("null")
		*m = nil
	default:
		r.wrong(c, "map[string]string")
	}
}
