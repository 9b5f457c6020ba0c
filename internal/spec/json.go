package spec

import (
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"engage/internal/resource"
)

// JSON encoding of resource.Value: scalars map to native JSON types;
// structs to objects; lists to arrays. Secrets are wrapped in a
// {"__secret__": "…"} object so they survive a round trip; TCP ports are
// plain numbers (indistinguishable from ints by design — the port kind
// is re-established by the resource type when values are checked).

// Writer appends JSON to a byte slice. It writes exactly the bytes
// encoding/json writes for the same value — object keys of a map
// sorted, struct fields in declaration order, strings escaped HTML-safe
// — either compact, as json.Marshal does, or indented, as
// json.MarshalIndent does for any prefix and indent. Specifications,
// values and stack records are encoded through it directly, with no
// intermediate tree and no second pass to indent.
//
// The writer checks nothing: a caller pairs every Begin with its End
// and starts each member with Key or Elem.
type Writer struct {
	buf     []byte
	prefix  string
	indent  string
	compact bool
	depth   int
	// empty is set while the innermost open object or array has no
	// member yet.
	empty bool
	// names is scratch for sorting map keys, used as a stack by nested
	// maps.
	names []string
}

var writers = sync.Pool{New: func() any { return new(Writer) }}

// NewWriter returns a writer, over a buffer kept from earlier writers,
// that appends what json.MarshalIndent(v, prefix, indent) writes.
// Release it when its bytes are no longer needed.
func NewWriter(prefix, indent string) *Writer {
	w := writers.Get().(*Writer)
	w.prefix, w.indent, w.compact = prefix, indent, false
	return w
}

// NewCompactWriter returns a writer that appends what json.Marshal
// writes. Release it when its bytes are no longer needed.
func NewCompactWriter() *Writer {
	w := NewWriter("", "")
	w.compact = true
	return w
}

// Bytes returns what has been written. The bytes belong to the writer
// and are reused after Release.
func (w *Writer) Bytes() []byte { return w.buf }

// Release hands the writer's buffer on to the next writer.
func (w *Writer) Release() {
	clear(w.names[:cap(w.names)]) // keep no key alive
	w.buf, w.depth, w.empty, w.names = w.buf[:0], 0, false, w.names[:0]
	writers.Put(w)
}

// Newline appends a newline, as json.Encoder does after each value.
func (w *Writer) Newline() { w.buf = append(w.buf, '\n') }

// newline breaks the line and indents the next one to the current depth.
func (w *Writer) newline() {
	w.buf = append(w.buf, '\n')
	w.buf = append(w.buf, w.prefix...)
	for range w.depth {
		w.buf = append(w.buf, w.indent...)
	}
}

// next separates a member from the one before it.
func (w *Writer) next() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	if !w.compact {
		w.newline()
	}
}

func (w *Writer) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends an object or array; an empty one stays on its line, as
// "{}" or "[]".
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty && !w.compact {
		w.newline()
	}
	w.empty = false
	w.buf = append(w.buf, c)
}

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

// Key starts an object member: its name, then the separator its value
// follows.
func (w *Writer) Key(name string) {
	w.next()
	w.buf = appendString(w.buf, name)
	if w.compact {
		w.buf = append(w.buf, ':')
	} else {
		w.buf = append(w.buf, ':', ' ')
	}
}

// Elem starts an array element.
func (w *Writer) Elem() { w.next() }

// String writes a string.
func (w *Writer) String(s string) { w.buf = appendString(w.buf, s) }

// Int writes an integer.
func (w *Writer) Int(n int64) { w.buf = strconv.AppendInt(w.buf, n, 10) }

// Bool writes true or false.
func (w *Writer) Bool(b bool) { w.buf = strconv.AppendBool(w.buf, b) }

// Null writes null.
func (w *Writer) Null() { w.buf = append(w.buf, "null"...) }

// Value writes a resource value in its JSON form.
func (w *Writer) Value(v resource.Value) {
	switch v.Kind {
	case resource.KindString:
		w.String(v.Str)
	case resource.KindSecret:
		w.BeginObject()
		w.Key("__secret__")
		w.String(v.Str)
		w.EndObject()
	case resource.KindInt, resource.KindPort:
		w.Int(int64(v.Int))
	case resource.KindBool:
		w.Bool(v.Bool)
	case resource.KindStruct:
		WriteMap(w, v.Fields, (*Writer).Value)
	case resource.KindList:
		w.BeginArray()
		for _, e := range v.List {
			w.Elem()
			w.Value(e)
		}
		w.EndArray()
	default:
		w.Null()
	}
}

// WriteMap writes m as an object, keys sorted, each value by val; a nil
// map is {}.
func WriteMap[V any](w *Writer, m map[string]V, val func(*Writer, V)) {
	base := len(w.names)
	for n := range m { //engage:maporder — collected then sorted below
		w.names = append(w.names, n)
	}
	// Nested maps push their names past these and pop them again; a
	// nested append that moves w.names leaves this slice's array as it
	// is.
	names := w.names[base:]
	slices.Sort(names)
	w.BeginObject()
	for _, n := range names {
		w.Key(n)
		val(w, m[n])
	}
	w.EndObject()
	w.names = w.names[:base]
}

// key writes a resource key as the string Key.String returns.
func (w *Writer) key(k resource.Key) {
	w.buf = append(w.buf, '"')
	w.buf = appendEscaped(w.buf, k.Name)
	if k.Version != "" {
		// A space ends any byte sequence the name leaves open, so the
		// two halves escape as their concatenation does.
		w.buf = append(w.buf, ' ')
		w.buf = appendEscaped(w.buf, k.Version)
	}
	w.buf = append(w.buf, '"')
}

// inside writes an instance's container as {"id": …}, if it has one.
func (w *Writer) inside(id string) {
	if id == "" {
		return
	}
	w.Key("inside")
	w.BeginObject()
	w.Key("id")
	w.String(id)
	w.EndObject()
}

// member writes the named member m, if m has any entry: the omitempty
// of the form's map fields.
func member[V any](w *Writer, name string, m map[string]V, val func(*Writer, V)) {
	if len(m) > 0 {
		w.Key(name)
		WriteMap(w, m, val)
	}
}

const hex = "0123456789abcdef"

// appendString appends s quoted and escaped as encoding/json escapes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends s escaped as encoding/json escapes a string
// with HTML escaping on: quote, backslash and control bytes, '<', '>'
// and '&', U+2028 and U+2029, and each byte of invalid UTF-8 as U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
