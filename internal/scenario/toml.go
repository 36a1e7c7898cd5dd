package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// parseTOML parses the TOML subset scenario and campaign files use
// into nested map[string]any — the generic shape encoding/json
// produces — so DecodeStrict can decode it into the typed document.
//
// Supported: comments, [tables], [[arrays of tables]], dotted and
// quoted keys, basic and literal strings, integers (with _
// separators), floats, booleans, and (possibly multiline) arrays of
// any supported value. Deliberately absent: inline tables, multiline
// strings, dates — scenario documents do not need them, and a small
// grammar keeps the fuzz surface honest.
func parseTOML(src string) (map[string]any, error) {
	root := map[string]any{}
	cur := root
	lines := strings.Split(src, "\n")
	for ln := 0; ln < len(lines); ln++ {
		line := strings.TrimSpace(stripComment(lines[ln]))
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "[["):
			if !strings.HasSuffix(line, "]]") {
				return nil, fmt.Errorf("line %d: malformed table array header %q", lineNo, line)
			}
			path, err := parseKeyPath(strings.TrimSuffix(strings.TrimPrefix(line, "[["), "]]"))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			parent, err := descend(root, path[:len(path)-1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			last := path[len(path)-1]
			entry := map[string]any{}
			switch existing := parent[last].(type) {
			case nil:
				parent[last] = []any{entry}
			case []any:
				parent[last] = append(existing, entry)
			default:
				return nil, fmt.Errorf("line %d: key %q is not a table array", lineNo, strings.Join(path, "."))
			}
			cur = entry
		case strings.HasPrefix(line, "["):
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("line %d: malformed table header %q", lineNo, line)
			}
			path, err := parseKeyPath(strings.TrimSuffix(strings.TrimPrefix(line, "["), "]"))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			tbl, err := descend(root, path)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			cur = tbl
		default:
			eq := indexUnquoted(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("line %d: expected key = value, got %q", lineNo, line)
			}
			path, err := parseKeyPath(line[:eq])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			raw := strings.TrimSpace(line[eq+1:])
			// Arrays may span lines: keep consuming until brackets
			// balance outside strings.
			for bracketDepth(raw) > 0 && ln+1 < len(lines) {
				ln++
				raw += "\n" + strings.TrimSpace(stripComment(lines[ln]))
			}
			val, err := parseValue(raw)
			if err != nil {
				return nil, fmt.Errorf("line %d: key %s: %w", lineNo, strings.Join(path, "."), err)
			}
			tbl := cur
			if len(path) > 1 {
				tbl, err = descend(cur, path[:len(path)-1])
				if err != nil {
					return nil, fmt.Errorf("line %d: %w", lineNo, err)
				}
			}
			last := path[len(path)-1]
			if _, dup := tbl[last]; dup {
				return nil, fmt.Errorf("line %d: duplicate key %q", lineNo, strings.Join(path, "."))
			}
			tbl[last] = val
		}
	}
	return root, nil
}

// descend walks (creating as needed) nested tables along path. For a
// path ending at an array of tables, it descends into the last entry —
// the TOML rule for [x.y] headers after [[x]].
func descend(root map[string]any, path []string) (map[string]any, error) {
	cur := root
	for _, key := range path {
		switch next := cur[key].(type) {
		case nil:
			tbl := map[string]any{}
			cur[key] = tbl
			cur = tbl
		case map[string]any:
			cur = next
		case []any:
			if len(next) == 0 {
				return nil, fmt.Errorf("key %q is an empty table array", key)
			}
			tbl, ok := next[len(next)-1].(map[string]any)
			if !ok {
				return nil, fmt.Errorf("key %q is not a table", key)
			}
			cur = tbl
		default:
			return nil, fmt.Errorf("key %q is a value, not a table", key)
		}
	}
	return cur, nil
}

// parseKeyPath splits a possibly dotted, possibly quoted key.
func parseKeyPath(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty key")
	}
	var path []string
	for len(s) > 0 {
		s = strings.TrimSpace(s)
		if strings.HasPrefix(s, `"`) {
			val, rest, err := scanBasicString(s)
			if err != nil {
				return nil, err
			}
			path = append(path, val)
			s = strings.TrimSpace(rest)
			if s == "" {
				return path, nil
			}
			if !strings.HasPrefix(s, ".") {
				return nil, fmt.Errorf("unexpected %q after quoted key", s)
			}
			s = s[1:]
			continue
		}
		part := s
		if i := strings.IndexByte(s, '.'); i >= 0 {
			part, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		part = strings.TrimSpace(part)
		if !isBareKey(part) {
			return nil, fmt.Errorf("invalid key %q", part)
		}
		path = append(path, part)
	}
	return path, nil
}

func isBareKey(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// parseValue parses one TOML value (the full remaining text must be
// consumed).
func parseValue(s string) (any, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("missing value")
	}
	switch {
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	case s[0] == '"':
		val, rest, err := scanBasicString(s)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("trailing garbage %q after string", rest)
		}
		return val, nil
	case s[0] == '\'':
		end := strings.IndexByte(s[1:], '\'')
		if end < 0 {
			return nil, fmt.Errorf("unterminated literal string")
		}
		if strings.TrimSpace(s[end+2:]) != "" {
			return nil, fmt.Errorf("trailing garbage after string")
		}
		return s[1 : end+1], nil
	case s[0] == '[':
		return parseArray(s)
	default:
		plain := strings.ReplaceAll(s, "_", "")
		if n, err := strconv.ParseInt(plain, 10, 64); err == nil {
			return n, nil
		}
		if f, err := strconv.ParseFloat(plain, 64); err == nil {
			return f, nil
		}
		return nil, fmt.Errorf("unparseable value %q", s)
	}
}

// parseArray parses a bracketed array of values, splitting elements at
// top-level commas.
func parseArray(s string) (any, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") || bracketDepth(s) != 0 {
		return nil, fmt.Errorf("malformed array %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	out := []any{}
	if inner == "" {
		return out, nil
	}
	depth, start, inStr, inLit := 0, 0, false, false
	emit := func(end int) error {
		elem := strings.TrimSpace(inner[start:end])
		if elem == "" {
			return fmt.Errorf("empty array element in %q", s)
		}
		v, err := parseValue(elem)
		if err != nil {
			return err
		}
		out = append(out, v)
		return nil
	}
	for i := 0; i < len(inner); i++ {
		c := inner[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inLit:
			if c == '\'' {
				inLit = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inLit = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			if err := emit(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if strings.TrimSpace(inner[start:]) != "" {
		if err := emit(len(inner)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanBasicString scans a leading double-quoted string, returning its
// unescaped value and the remainder.
func scanBasicString(s string) (val, rest string, err error) {
	if len(s) < 2 || s[0] != '"' {
		return "", "", fmt.Errorf("not a string: %q", s)
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			switch s[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				return "", "", fmt.Errorf("unsupported escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated string %q", s)
}

// indexUnquoted returns the index of the first c outside quoted
// strings, or -1.
func indexUnquoted(s string, c byte) int {
	inStr, inLit := false, false
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; {
		case inStr:
			if ch == '\\' {
				i++
			} else if ch == '"' {
				inStr = false
			}
		case inLit:
			if ch == '\'' {
				inLit = false
			}
		case ch == '"':
			inStr = true
		case ch == '\'':
			inLit = true
		case ch == c:
			return i
		}
	}
	return -1
}

// stripComment removes a trailing # comment, respecting strings.
func stripComment(line string) string {
	inStr, inLit := false, false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inLit:
			if c == '\'' {
				inLit = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inLit = true
		case c == '#':
			return line[:i]
		}
	}
	return line
}

// bracketDepth counts unbalanced [ outside strings — used to join
// multiline arrays.
func bracketDepth(s string) int {
	depth, inStr, inLit := 0, false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inLit:
			if c == '\'' {
				inLit = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inLit = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		}
	}
	return depth
}
