// Package ddgio serializes data dependence graphs in a line-oriented text
// format so loops can be exchanged with the command-line tools:
//
//	# comment
//	loop <name> <niter>
//	node <id> <opclass> [label]
//	edge <from> <to> <lat> <dist> <data|mem>
//
// Node lines must appear in ID order starting at 0. A file may contain
// several loops; each starts with a loop line.
package ddgio

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/textline"
)

// Write serializes loops to w in one write of their AppendText form.
func Write(w io.Writer, loops ...*ddg.Graph) error {
	_, err := w.Write(AppendText(nil, loops...))
	return err
}

// AppendText appends the text form of loops to dst and returns the extended
// buffer. It is the one canonical rendering: Write sends it and the
// gpserved cache key hashes it.
func AppendText(dst []byte, loops ...*ddg.Graph) []byte {
	for _, g := range loops {
		dst = append(dst, "loop "...)
		dst = appendField(dst, CanonicalName(g.Name))
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(g.Niter), 10)
		dst = append(dst, '\n')
		for _, n := range g.Nodes {
			dst = append(dst, "node "...)
			dst = strconv.AppendInt(dst, int64(n.ID), 10)
			dst = append(dst, ' ')
			dst = append(dst, n.Op.String()...)
			if n.Name != "" {
				dst = append(dst, ' ')
				dst = appendField(dst, n.Name)
			}
			dst = append(dst, '\n')
		}
		for _, e := range g.Edges {
			dst = append(dst, "edge "...)
			dst = strconv.AppendInt(dst, int64(e.From), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(e.To), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(e.Lat), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(e.Dist), 10)
			dst = append(dst, ' ')
			dst = append(dst, e.Kind.String()...)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// CanonicalName is the loop name the text form carries: every space becomes
// an underscore, and an unnamed loop is "loop". Two names with the same
// canonical name are the same loop to everything that keys on the text.
func CanonicalName(name string) string {
	if name == "" {
		return "loop"
	}
	return strings.ReplaceAll(name, " ", "_")
}

// appendField appends s with every space mapped to an underscore.
func appendField(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '_'
		}
		dst = append(dst, c)
	}
	return dst
}

// maxLine is the longest line Read accepts: a line of this many bytes or
// more before its newline is rejected with bufio.ErrTooLong.
const maxLine = 4 << 20

// Read parses all loops from r and validates each. It reads all of r before
// it parses.
func Read(r io.Reader) ([]*ddg.Graph, error) {
	text, err := textline.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ddgio: %w", err)
	}
	return ReadString(text)
}

// scratchPool holds the graphs ReadString parses a loop into before it
// copies the loop out at its final size. No analysis ever runs on a scratch
// graph, only on its Clone, so ReadString resets its fields directly.
var scratchPool = sync.Pool{New: func() any { return new(ddg.Graph) }}

// ReadString is Read over a text in memory. The loop names and node labels
// of the returned graphs are substrings of text.
func ReadString(text string) ([]*ddg.Graph, error) {
	cur := scratchPool.Get().(*ddg.Graph)
	defer func() {
		// Drop the references into text before the graph is reused.
		cur.Name = ""
		clear(cur.Nodes[:cap(cur.Nodes)])
		scratchPool.Put(cur)
	}()
	open := false
	var loops []*ddg.Graph
	closeLoop := func() {
		if open {
			loops = append(loops, cur.Clone())
		}
	}
	sc := textline.NewScanner(text, maxLine)
	var l textline.Line
	for sc.Scan(&l) {
		lineno, f := l.No, &l.F
		switch f[0] {
		case "loop":
			if l.N != 3 {
				return nil, fmt.Errorf("ddgio: line %d: loop wants <name> <niter>", lineno)
			}
			niter, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("ddgio: line %d: bad trip count %q", lineno, f[2])
			}
			closeLoop()
			cur.Name, cur.Niter = f[1], niter
			cur.Nodes, cur.Edges = cur.Nodes[:0], cur.Edges[:0]
			open = true
		case "node":
			if !open {
				return nil, fmt.Errorf("ddgio: line %d: node before loop", lineno)
			}
			if l.N < 3 || l.N > 4 {
				return nil, fmt.Errorf("ddgio: line %d: node wants <id> <opclass> [label]", lineno)
			}
			id, err := strconv.Atoi(f[1])
			if err != nil || id != cur.N() {
				return nil, fmt.Errorf("ddgio: line %d: node IDs must be dense and ordered (got %q, want %d)", lineno, f[1], cur.N())
			}
			op, err := ParseOpClass(f[2])
			if err != nil {
				return nil, fmt.Errorf("ddgio: line %d: %v", lineno, err)
			}
			label := ""
			if l.N == 4 {
				label = f[3]
			}
			cur.AddNode(op, label)
		case "edge":
			if !open {
				return nil, fmt.Errorf("ddgio: line %d: edge before loop", lineno)
			}
			if l.N != 6 {
				return nil, fmt.Errorf("ddgio: line %d: edge wants <from> <to> <lat> <dist> <kind>", lineno)
			}
			var nums [4]int
			for i := range nums {
				v, err := strconv.Atoi(f[1+i])
				if err != nil {
					return nil, fmt.Errorf("ddgio: line %d: bad number %q", lineno, f[1+i])
				}
				nums[i] = v
			}
			var kind ddg.EdgeKind
			switch f[5] {
			case "data":
				kind = ddg.Data
			case "mem":
				kind = ddg.Mem
			default:
				return nil, fmt.Errorf("ddgio: line %d: bad edge kind %q", lineno, f[5])
			}
			cur.AddEdge(ddg.Edge{From: nums[0], To: nums[1], Lat: nums[2], Dist: nums[3], Kind: kind})
		default:
			return nil, fmt.Errorf("ddgio: line %d: unknown directive %q", lineno, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ddgio: %w", err)
	}
	closeLoop()
	for _, g := range loops {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("ddgio: %w", err)
		}
	}
	return loops, nil
}

// ParseOpClass parses an operation-class mnemonic ("IntALU", "Load", ...).
func ParseOpClass(s string) (isa.OpClass, error) {
	if c, ok := isa.ParseOpClass(s); ok {
		return c, nil
	}
	return 0, fmt.Errorf("unknown op class %q", s)
}
