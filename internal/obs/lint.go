package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// LintPrometheus validates a Prometheus text-exposition stream and
// returns one message per conformance problem (empty slice: clean).
// The metricslint command runs it on a live daemon's /metrics, and the
// exporter's tests run it on their own expositions. The checks are the
// ones a real Prometheus scraper enforces or silently mangles:
//
//   - metric and label names match the Prometheus charsets;
//   - HELP/TYPE appear at most once per family, before its samples;
//   - every sample line parses and its value is a float;
//   - no duplicate series (same name + label set twice);
//   - histogram families have monotone non-decreasing bucket ladders,
//     an +Inf bucket equal to _count, and both _sum and _count.
func LintPrometheus(r io.Reader) []string {
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	fams := map[string]*lintFamily{}
	fam := func(name string) *lintFamily {
		f, ok := fams[name]
		if !ok {
			f = &lintFamily{
				seriesSeen: map[string]bool{},
				histSeries: map[string]*histCheck{},
				sumSeen:    map[string]bool{},
				countSeen:  map[string]bool{},
			}
			fams[name] = f
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			kind := line[2:6]
			rest := strings.TrimPrefix(line[7:], " ")
			name, _, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				addf("line %d: invalid metric name %q in # %s", lineNo, name, kind)
				continue
			}
			f := fam(name)
			if f.sampleSeen {
				addf("line %d: # %s %s appears after the family's samples", lineNo, kind, name)
			}
			if kind == "HELP" {
				if f.help {
					addf("line %d: duplicate # HELP for %s", lineNo, name)
				}
				f.help = true
			} else {
				if f.typ {
					addf("line %d: duplicate # TYPE for %s", lineNo, name)
				}
				f.typ = true
				f.typeName = strings.TrimSpace(strings.TrimPrefix(rest, name))
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			addf("line %d: %v", lineNo, err)
			continue
		}
		if !validMetricName(name) {
			addf("line %d: invalid metric name %q", lineNo, name)
			continue
		}
		for _, lp := range labels {
			if !validLabelName(lp.name) {
				addf("line %d: invalid label name %q on %s", lineNo, lp.name, name)
			}
		}

		// Attribute histogram suffix lines to their base family.
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, s); b != name {
				if bf, ok := fams[b]; ok && bf.typeName == "histogram" {
					base, suffix = b, s
				}
				break
			}
		}
		f := fam(base)
		f.sampleSeen = true
		key := seriesKey(name, labels, suffix == "_bucket")
		if f.seriesSeen[key] {
			addf("line %d: duplicate series %s", lineNo, strings.TrimSpace(line))
		}
		f.seriesSeen[key] = true

		if suffix == "" {
			if f.typeName == "histogram" {
				addf("line %d: bare sample %s for histogram family", lineNo, name)
			}
			continue
		}
		sk := seriesKey(base, withoutLabel(labels, "le"), false)
		switch suffix {
		case "_sum":
			f.sumSeen[sk] = true
		case "_count":
			f.countSeen[sk] = true
			h := f.hist(sk)
			h.count, h.countSet = value, true
		case "_bucket":
			le, ok := labelValue(labels, "le")
			if !ok {
				addf("line %d: %s_bucket without le label", lineNo, base)
				continue
			}
			h := f.hist(sk)
			if le == "+Inf" {
				h.inf, h.infSet = value, true
			} else {
				lev, err := strconv.ParseFloat(le, 64)
				if err != nil {
					addf("line %d: unparseable le=%q on %s_bucket", lineNo, le, base)
					continue
				}
				h.buckets = append(h.buckets, bucketPoint{le: lev, count: value})
			}
		}
	}
	if err := sc.Err(); err != nil {
		addf("read: %v", err)
	}

	// Cross-line histogram checks, in deterministic family order.
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if f.typeName != "histogram" {
			continue
		}
		series := make([]string, 0, len(f.histSeries))
		for sk := range f.histSeries {
			series = append(series, sk)
		}
		sort.Strings(series)
		for _, sk := range series {
			h := f.histSeries[sk]
			where := n
			if sk != n+"\x00" {
				where = strings.TrimSuffix(strings.ReplaceAll(strings.ReplaceAll(
					strings.ReplaceAll(sk, "\x00", "{"), "\x01", "="), "\x02", ","), ",") + "}"
			}
			sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
			prev := 0.0
			for _, b := range h.buckets {
				if b.count < prev {
					addf("%s: bucket ladder not monotone (le=%s drops to %g)", where, fmtFloat(b.le), b.count)
					break
				}
				prev = b.count
			}
			if !h.infSet {
				addf("%s: missing le=\"+Inf\" bucket", where)
			} else {
				if h.inf < prev {
					addf("%s: +Inf bucket %g below last finite bucket %g", where, h.inf, prev)
				}
				if h.countSet && h.inf != h.count {
					addf("%s: +Inf bucket %g != _count %g", where, h.inf, h.count)
				}
			}
			if !f.sumSeen[sk] {
				addf("%s: missing _sum", where)
			}
			if !f.countSeen[sk] {
				addf("%s: missing _count", where)
			}
		}
	}
	return problems
}

// lintFamily accumulates what LintPrometheus has seen for one metric
// family.
type lintFamily struct {
	help, typ  bool
	typeName   string
	sampleSeen bool
	seriesSeen map[string]bool
	histSeries map[string]*histCheck
	sumSeen    map[string]bool
	countSeen  map[string]bool
}

type bucketPoint struct {
	le, count float64
}

type histCheck struct {
	buckets          []bucketPoint
	inf, count       float64
	infSet, countSet bool
}

type labelPair struct {
	name, value string
}

func (f *lintFamily) hist(sk string) *histCheck {
	h := f.histSeries[sk]
	if h == nil {
		h = &histCheck{}
		f.histSeries[sk] = h
	}
	return h
}

func seriesKey(name string, labels []labelPair, includeLE bool) string {
	ls := append([]labelPair(nil), labels...)
	if !includeLE {
		ls = withoutLabel(ls, "le")
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].name < ls[j].name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte(0)
	for _, lp := range ls {
		b.WriteString(lp.name)
		b.WriteByte(1)
		b.WriteString(lp.value)
		b.WriteByte(2)
	}
	return b.String()
}

func withoutLabel(labels []labelPair, name string) []labelPair {
	out := make([]labelPair, 0, len(labels))
	for _, lp := range labels {
		if lp.name != name {
			out = append(out, lp)
		}
	}
	return out
}

func labelValue(labels []labelPair, name string) (string, bool) {
	for _, lp := range labels {
		if lp.name == name {
			return lp.value, true
		}
	}
	return "", false
}

// parseSample splits `name{l1="v1",l2="v2"} value [timestamp]`.
func parseSample(line string) (name string, labels []labelPair, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("unparseable sample %q", line)
	}
	name, rest = rest[:i], rest[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			ln := strings.TrimSpace(rest[:eq])
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '\\' {
					if rest == "" {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[0] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", rest[0], line)
					}
					rest = rest[1:]
					continue
				}
				if c == '"' {
					break
				}
				val.WriteByte(c)
			}
			labels = append(labels, labelPair{name: ln, value: val.String()})
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value (and optional timestamp) in %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q in %q", fields[0], line)
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q in %q", fields[1], line)
		}
	}
	return name, labels, value, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
