package httpkit

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Page accumulates one GET /metrics reply in the Prometheus text
// exposition format (version 0.0.4). A family's HELP and TYPE lines are
// written once by Family; its samples follow through Sample. Integer
// values are written as %d and floats as %g. Label values are escaped as
// the format defines — backslash, double quote and newline only — and
// invalid UTF-8 is replaced by U+FFFD, so no matrix id or backend name can
// make a scraper reject the page.
type Page struct {
	sb strings.Builder
}

// Number is the type of a sample value.
type Number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Family writes the HELP and TYPE lines that head the family name; typ
// is "counter", "gauge" or "histogram".
func (p *Page) Family(name, typ, help string) {
	fmt.Fprintf(&p.sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of name with value v. labels are name/value
// pairs, written in the order given.
func Sample[V Number](p *Page, name string, v V, labels ...string) {
	p.sb.WriteString(name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&p.sb, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(strings.ToValidUTF8(labels[i+1], "\uFFFD")))
		sep = ","
	}
	if len(labels) > 0 {
		p.sb.WriteByte('}')
	}
	// %v is %d for the integer types and %g for float64.
	fmt.Fprintf(&p.sb, " %v\n", v)
}

// labelEscaper escapes a label value as the text format defines.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Single writes a family holding one unlabeled sample.
func Single[V Number](p *Page, name, typ, help string, v V) {
	p.Family(name, typ, help)
	Sample(p, name, v)
}

// Serve answers the request with the page.
func (p *Page) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, p.sb.String())
}
