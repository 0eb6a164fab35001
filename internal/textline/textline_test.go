package textline

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// FuzzScanMatchesFields reads one text with a Scanner and with the
// bufio.Scanner, strings.TrimSpace and strings.Fields pipeline it stands in
// for: the same lines, numbers, field counts and leading fields, and the
// same verdict on an overlong line.
func FuzzScanMatchesFields(f *testing.F) {
	f.Add("loop a 1\n\n# c\nnode 0 Load x\r\n  edge 0 1 2 0 data extra fields here\n", 64)
	f.Add(" loop a\u0085b 1\n#\nnode 0 \xffLoad\n \t\v\f\r\n", 16)
	f.Add("no newline at the end", 21)
	f.Add("no newline at the end", 22)
	f.Add("a\nbb\nccc\n", 3)
	f.Fuzz(func(t *testing.T, text string, maxLine int) {
		maxLine = min(max(maxLine, 1), 1<<16)
		ref := bufio.NewScanner(strings.NewReader(text))
		ref.Buffer(make([]byte, 0, min(maxLine, 4096)), maxLine)
		sc := NewScanner(text, maxLine)
		var l Line
		no := 0
		for ref.Scan() {
			no++
			line := strings.TrimSpace(ref.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			want := strings.Fields(line)
			if !sc.Scan(&l) {
				t.Fatalf("line %d %q: Scan stopped (%v)", no, line, sc.Err())
			}
			if l.No != no || l.N != len(want) {
				t.Fatalf("line %d %q: got line %d with %d fields, want %d", no, line, l.No, l.N, len(want))
			}
			for i := 0; i < min(l.N, MaxFields); i++ {
				if l.F[i] != want[i] {
					t.Fatalf("line %d field %d: %q, want %q", no, i, l.F[i], want[i])
				}
			}
		}
		if sc.Scan(&l) {
			t.Fatalf("Scan read line %d past the reference's end (%v)", l.No, ref.Err())
		}
		if errors.Is(ref.Err(), bufio.ErrTooLong) != errors.Is(sc.Err(), bufio.ErrTooLong) {
			t.Fatalf("error %v, reference %v", sc.Err(), ref.Err())
		}
	})
}
