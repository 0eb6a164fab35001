// Package textline splits the repository's line-oriented text formats (the
// ddgio loop format and the machine description format) into fields. It
// holds the whole text in memory and reads lines exactly as the
// bufio.ScanLines, strings.TrimSpace and strings.Fields pipeline the formats
// were first read with: the same lines, the same fields, the same line
// numbers and the same bufio.ErrTooLong on an overlong line. Scanning
// allocates nothing: each field is a substring of the text.
package textline

import (
	"bufio"
	"io"
	"strings"
	"unicode/utf8"
)

// MaxFields is the number of leading fields a Line keeps. Both formats'
// longest directive ("edge <from> <to> <lat> <dist> <kind>") has six.
const MaxFields = 6

// Line is one line that is neither blank nor a comment.
type Line struct {
	// No is the line's 1-based number in the text.
	No int
	// N is the number of fields on the line, including any past MaxFields.
	N int
	// F holds the first min(N, MaxFields) fields.
	F [MaxFields]string
}

// Scanner reads the lines of a text held in memory.
type Scanner struct {
	text    string
	maxLine int
	no      int
	err     error
}

// NewScanner returns a Scanner over text that rejects, with
// bufio.ErrTooLong, any line of maxLine bytes or more before its newline:
// the lines a bufio.Scanner with that maximum token size rejects.
func NewScanner(text string, maxLine int) Scanner {
	return Scanner{text: text, maxLine: maxLine}
}

// Scan reads the next line that is neither blank nor a comment (its first
// field starts with '#') into l. It returns false at the end of the text or
// on an error, which Err then reports.
func (s *Scanner) Scan(l *Line) bool {
	for s.err == nil && s.text != "" {
		line := s.text
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, s.text = line[:i], line[i+1:]
		} else {
			s.text = ""
		}
		s.no++
		if len(line) >= s.maxLine {
			s.err = bufio.ErrTooLong
			return false
		}
		if split(line, l) && l.F[0][0] != '#' {
			l.No = s.no
			return true
		}
	}
	return false
}

// Err returns the error that stopped Scan, or nil at the end of the text.
func (s *Scanner) Err() error { return s.err }

// Byte classes for split: a field byte, an ASCII byte unicode.IsSpace
// accepts, or a byte of a multi-byte UTF-8 sequence (or invalid UTF-8).
const (
	fieldByte = iota
	spaceByte
	wideByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = wideByte
	}
	return c
}()

// split fills l's fields from line and reports whether it has any. A line
// with a non-ASCII byte goes through strings.Fields, which also splits on
// Unicode white space.
func split(line string, l *Line) bool {
	n := 0
	for i := 0; i < len(line); {
		switch byteClass[line[i]] {
		case spaceByte:
			i++
			continue
		case wideByte:
			return splitUnicode(line, l)
		}
		j := i + 1
		for j < len(line) && byteClass[line[j]] == fieldByte {
			j++
		}
		if j < len(line) && byteClass[line[j]] == wideByte {
			return splitUnicode(line, l)
		}
		if n < MaxFields {
			l.F[n] = line[i:j]
		}
		n++
		i = j
	}
	l.N = n
	return n > 0
}

func splitUnicode(line string, l *Line) bool {
	f := strings.Fields(line)
	l.N = len(f)
	copy(l.F[:], f)
	return l.N > 0
}

// ReadAll returns everything r yields as one string. A reader that reports
// its length (bytes.Reader, strings.Reader, bytes.Buffer) costs a single
// allocation of exactly that size.
func ReadAll(r io.Reader) (string, error) {
	var b strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len())
	}
	_, err := io.Copy(&b, r)
	return b.String(), err
}
