package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error in N-Triples input.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// ReadNTriples parses a simplified N-Triples document into g. Supported
// syntax per line: three terms followed by an optional trailing '.',
// where a term is <iri>, "literal" (with the \n, \r and \t escapes; any
// other escaped byte, \" and \\ included, stands for itself), or
// _:blank. An IRI or blank label holding a line break is rejected.
// Comment lines starting with '#' and blank lines are skipped.
// It returns the number of triples read (including duplicates).
func ReadNTriples(g *Graph, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n, lineno := 0, 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		terms, err := parseLine(line)
		if err != nil {
			return n, &ParseError{Line: lineno, Msg: err.Error()}
		}
		g.AddTerms(terms[0], terms[1], terms[2])
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("ntriples: %w", err)
	}
	return n, nil
}

func parseLine(line string) ([3]Term, error) {
	var out [3]Term
	rest := line
	for i := 0; i < 3; i++ {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return out, fmt.Errorf("expected term %d, found end of line", i+1)
		}
		t, tail, err := parseTerm(rest)
		if err != nil {
			return out, err
		}
		if !writable(t) {
			return out, fmt.Errorf("line break in %s %q", t.Kind, t.Value)
		}
		out[i] = t
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	if rest != "" && rest != "." {
		return out, fmt.Errorf("trailing garbage %q", rest)
	}
	return out, nil
}

func parseTerm(s string) (Term, string, error) {
	switch {
	case s[0] == '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return Term{}, "", fmt.Errorf("unterminated IRI in %q", s)
		}
		return NewIRI(s[1:end]), s[end+1:], nil
	case s[0] == '"':
		var b strings.Builder
		i := 1
		for i < len(s) {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					return Term{}, "", fmt.Errorf("dangling escape in %q", s)
				}
				switch c := s[i+1]; c {
				case 'n':
					b.WriteByte('\n')
				case 'r':
					b.WriteByte('\r')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(c)
				}
				i += 2
			case '"':
				return NewLiteral(b.String()), s[i+1:], nil
			default:
				b.WriteByte(s[i])
				i++
			}
		}
		return Term{}, "", fmt.Errorf("unterminated literal in %q", s)
	case strings.HasPrefix(s, "_:"):
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return NewBlank(s[2:end]), s[end:], nil
	default:
		return Term{}, "", fmt.Errorf("unrecognized term starting at %q", s)
	}
}

// WriteNTriples serializes the graph in the same simplified N-Triples
// syntax accepted by ReadNTriples, one triple per line. It fails on an
// IRI or blank label that file could not hold (see writable).
func WriteNTriples(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		s := g.Dict.Term(t.S)
		p := g.Dict.Term(t.P)
		o := g.Dict.Term(t.O)
		for _, term := range [3]Term{s, p, o} {
			if !writable(term) {
				return fmt.Errorf("ntriples: cannot write %s %q", term.Kind, term.Value)
			}
		}
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", escape(s), escape(p), escape(o)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// literalEscaper escapes a literal's value so it reads back whole and on
// one line.
var literalEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`)

func escape(t Term) string {
	if t.Kind != Literal {
		return t.String()
	}
	return `"` + literalEscaper.Replace(t.Value) + `"`
}

// writable reports whether t survives a write and a read. Literals are
// escaped; IRIs and blank labels are written raw, so they must hold no
// line break and not the byte that ends them ('>', or a space or tab).
func writable(t Term) bool {
	switch t.Kind {
	case IRI:
		return !strings.ContainsAny(t.Value, ">\r\n")
	case Blank:
		return !strings.ContainsAny(t.Value, " \t\r\n")
	}
	return true
}
