package cpnet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"mmconf/internal/wire"
)

// The on-disk / on-wire forms of a network. The text form is the authoring
// format (what the document author writes); the binary form is what the
// store persists inside a document and what the interaction server ships
// to clients.
//
// Text grammar, one statement per line ('#' starts a comment):
//
//	var  <name> { <value> <value> ... }
//	parents <name> ( <parent> <parent> ... )
//	pref <name> [ <parent>=<value> ... ] : <value> > <value> > ...
//
// The context bracket is omitted for parentless variables.

// AppendBody writes the network's binary form: a variable count, then
// per variable its name, domain and parent indices, then per variable
// its CPT as (parent-assignment key, preference order) rows in key order.
func (n *Network) AppendBody(e *wire.BodyEnc) {
	e.Uvarint(uint64(len(n.nodes)))
	for _, nd := range n.nodes {
		e.String(nd.v.Name)
		e.Uvarint(uint64(len(nd.v.Domain)))
		for _, val := range nd.v.Domain {
			e.String(val)
		}
		e.Uvarint(uint64(len(nd.parents)))
		for _, p := range nd.parents {
			e.Uvarint(uint64(p))
		}
	}
	for _, nd := range n.nodes {
		keys := make([]uint64, 0, len(nd.cpt))
		for k := range nd.cpt {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Uvarint(k)
			e.Bytes(nd.cpt[k])
		}
	}
}

// DecodeBody reads a network AppendBody wrote into n, which must be
// empty (fresh from New). It refuses what the constructors would: a bad
// variable or domain, a parent out of range, repeated, or closing a
// cycle, a CPT key outside the parents' assignment space, a repeated
// key, or a row that is not a permutation of the domain. A CPT may be
// incomplete; Validate says whether it is.
func (n *Network) DecodeBody(d *wire.Dec) error {
	nv := d.Count()
	for i := uint64(0); i < nv && d.Err() == nil; i++ {
		name, size := d.String(), d.Count()
		if size > MaxDomainSize {
			return fmt.Errorf("cpnet: variable %q domain size %d exceeds %d", name, size, MaxDomainSize)
		}
		domain := make([]string, 0, size)
		for j := uint64(0); j < size && d.Err() == nil; j++ {
			domain = append(domain, d.String())
		}
		if d.Err() != nil {
			break
		}
		if err := n.AddVariable(name, domain); err != nil {
			return err
		}
		nd := n.nodes[i]
		for j := d.Count(); j > 0 && d.Err() == nil; j-- {
			p := d.Uvarint()
			if p >= nv || slices.Contains(nd.parents, int(p)) {
				return fmt.Errorf("cpnet: %q names parent %d of %d variables twice or out of range", name, p, nv)
			}
			nd.parents = append(nd.parents, int(p))
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	n.invalidate()
	if _, err := n.topoOrder(); err != nil {
		return err
	}
	for i, nd := range n.nodes {
		rows := n.rowCount(i)
		for j := d.Count(); j > 0 && d.Err() == nil; j-- {
			k, row := d.Uvarint(), d.Bytes()
			if d.Err() != nil {
				break
			}
			if k >= rows {
				return fmt.Errorf("cpnet: CPT key %d of %q is outside its %d parent assignments", k, nd.v.Name, rows)
			}
			if _, dup := nd.cpt[k]; dup {
				return fmt.Errorf("cpnet: CPT of %q repeats key %d", nd.v.Name, k)
			}
			if !isPermutation(row, len(nd.v.Domain)) {
				return fmt.Errorf("cpnet: CPT row for %q is not a permutation of its domain", nd.v.Name)
			}
			nd.cpt[k] = bytes.Clone(row)
		}
	}
	return d.Err()
}

// isPermutation reports whether row orders all of 0..size-1, each once.
func isPermutation(row []uint8, size int) bool {
	if len(row) != size {
		return false
	}
	var seen [MaxDomainSize]bool
	for _, v := range row {
		if int(v) >= size || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// WriteText renders the network in the authoring text format.
func (n *Network) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, nd := range n.nodes {
		fmt.Fprintf(bw, "var %s { %s }\n", nd.v.Name, strings.Join(nd.v.Domain, " "))
	}
	for _, nd := range n.nodes {
		if len(nd.parents) == 0 {
			continue
		}
		names := make([]string, len(nd.parents))
		for j, p := range nd.parents {
			names[j] = n.nodes[p].v.Name
		}
		fmt.Fprintf(bw, "parents %s ( %s )\n", nd.v.Name, strings.Join(names, " "))
	}
	for _, nd := range n.nodes {
		keys := make([]uint64, 0, len(nd.cpt))
		for k := range nd.cpt {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			row := nd.cpt[k]
			vals := make([]string, len(row))
			for j, v := range row {
				vals[j] = nd.v.Domain[v]
			}
			ctx := n.decodeCtx(nd, k)
			if len(ctx) == 0 {
				fmt.Fprintf(bw, "pref %s : %s\n", nd.v.Name, strings.Join(vals, " > "))
			} else {
				fmt.Fprintf(bw, "pref %s [ %s ] : %s\n", nd.v.Name, strings.Join(ctx, " "), strings.Join(vals, " > "))
			}
		}
	}
	return bw.Flush()
}

// decodeCtx inverts the mixed-radix CPT key into "parent=value" terms.
func (n *Network) decodeCtx(nd *node, key uint64) []string {
	terms := make([]string, len(nd.parents))
	for j := len(nd.parents) - 1; j >= 0; j-- {
		p := n.nodes[nd.parents[j]]
		d := uint64(len(p.v.Domain))
		terms[j] = p.v.Name + "=" + p.v.Domain[key%d]
		key /= d
	}
	return terms
}

// Text renders the network to a string (see WriteText).
func (n *Network) Text() string {
	var buf bytes.Buffer
	_ = n.WriteText(&buf) // bytes.Buffer writes cannot fail
	return buf.String()
}

// ParseText parses the authoring text format into a network.
func ParseText(r io.Reader) (*Network, error) {
	n := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseStatement(n, fields); err != nil {
			return nil, fmt.Errorf("cpnet: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cpnet: reading text: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

func parseStatement(n *Network, fields []string) error {
	switch fields[0] {
	case "var":
		if len(fields) < 4 || fields[2] != "{" || fields[len(fields)-1] != "}" {
			return fmt.Errorf("malformed var statement")
		}
		return n.AddVariable(fields[1], fields[3:len(fields)-1])
	case "parents":
		if len(fields) < 4 || fields[2] != "(" || fields[len(fields)-1] != ")" {
			return fmt.Errorf("malformed parents statement")
		}
		return n.SetParents(fields[1], fields[3:len(fields)-1])
	case "pref":
		return parsePref(n, fields[1:])
	default:
		return fmt.Errorf("unknown statement %q", fields[0])
	}
}

func parsePref(n *Network, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("malformed pref statement")
	}
	name := fields[0]
	rest := fields[1:]
	ctx := Outcome{}
	if rest[0] == "[" {
		close := -1
		for i, f := range rest {
			if f == "]" {
				close = i
				break
			}
		}
		if close < 0 {
			return fmt.Errorf("unclosed context bracket")
		}
		for _, term := range rest[1:close] {
			eq := strings.IndexByte(term, '=')
			if eq <= 0 || eq == len(term)-1 {
				return fmt.Errorf("malformed context term %q", term)
			}
			ctx[term[:eq]] = term[eq+1:]
		}
		rest = rest[close+1:]
	}
	if len(rest) == 0 || rest[0] != ":" {
		return fmt.Errorf("pref statement missing ':'")
	}
	rest = rest[1:]
	// rest is "v1 > v2 > v3": values at even positions, ">" between.
	var order []string
	for i, f := range rest {
		if i%2 == 0 {
			order = append(order, f)
		} else if f != ">" {
			return fmt.Errorf("expected '>' between preference values, got %q", f)
		}
	}
	if len(rest)%2 == 0 {
		return fmt.Errorf("dangling '>' in preference order")
	}
	return n.SetPreference(name, ctx, order)
}
