package textproc

// Porter stemming algorithm (M.F. Porter, "An algorithm for suffix
// stripping", Program 14(3) 1980), implemented from the original paper.
// The paper's pipeline stems every token before mining "to address the
// various forms of words (e.g. cooking, cook, cooked) and phrase
// sparsity" (§7.1).
//
// The implementation operates on ASCII lowercase bytes; tokens with
// non-ASCII letters are returned unchanged.

// Stem returns the Porter stem of a lowercase word.
func Stem(word string) string {
	if !stemmable(word) {
		return word
	}
	return string(porter([]byte(word)))
}

// appendStem appends the Porter stem of the lowercase word to dst and
// returns the extended buffer. It allocates only to grow dst, so a
// caller reusing one buffer stems without allocating.
func appendStem(dst, word []byte) []byte {
	n := len(dst)
	dst = append(dst, word...)
	if stemmable(word) {
		dst = dst[:n+len(porter(dst[n:]))]
	}
	return dst
}

// stemmable reports whether word goes through Porter's steps at all:
// words of two letters or fewer and words with a character outside
// a-z (hyphens and apostrophes aside) are their own stem.
func stemmable[T string | []byte](word T) bool {
	if len(word) <= 2 {
		return false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			if c == '-' || c == '\'' {
				continue // stem compound words as-is
			}
			return false
		}
	}
	return true
}

// porter runs the algorithm's steps over b in place. Every step only
// shortens b or rewrites its tail within the original length, so the
// result is a prefix of b's backing array.
func porter(b []byte) []byte {
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	return step5b(b)
}

// isConsonant reports whether b[i] is a consonant per Porter's
// definition: a letter other than a,e,i,o,u, and y preceded by a vowel
// is also a vowel (y after a consonant is a consonant... precisely: y is
// a consonant when at position 0 or preceded by a vowel).
func isConsonant(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(b, i-1)
	}
	return true
}

// measure computes m, the number of VC sequences in b[:k].
func measure(b []byte) int {
	n := len(b)
	m := 0
	i := 0
	// skip initial consonants
	for i < n && isConsonant(b, i) {
		i++
	}
	for i < n {
		// in vowel run
		for i < n && !isConsonant(b, i) {
			i++
		}
		if i >= n {
			break
		}
		// in consonant run -> one VC completed
		m++
		for i < n && isConsonant(b, i) {
			i++
		}
	}
	return m
}

// containsVowel reports *v*: the stem contains a vowel.
func containsVowel(b []byte) bool {
	for i := range b {
		if !isConsonant(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports *d: the stem ends with a double consonant.
func endsDoubleConsonant(b []byte) bool {
	n := len(b)
	return n >= 2 && b[n-1] == b[n-2] && isConsonant(b, n-1)
}

// endsCVC reports *o: stem ends cvc where the final c is not w, x or y.
func endsCVC(b []byte) bool {
	n := len(b)
	if n < 3 {
		return false
	}
	if !isConsonant(b, n-3) || isConsonant(b, n-2) || !isConsonant(b, n-1) {
		return false
	}
	switch b[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	return string(b[len(b)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r, in place, when the measure of
// the stem (b without s) satisfies cond. Returns (newWord, true) if
// replaced. No rule's replacement is longer than its suffix, so the
// append never grows b.
func replaceSuffix(b []byte, s, r string, minMeasure int) ([]byte, bool) {
	if !hasSuffix(b, s) {
		return b, false
	}
	stem := b[:len(b)-len(s)]
	if measure(stem) <= minMeasure-1 {
		return b, false
	}
	return append(stem, r...), true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2] // sses -> ss
	case hasSuffix(b, "ies"):
		return b[:len(b)-2] // ies -> i
	case hasSuffix(b, "ss"):
		return b // ss -> ss
	case hasSuffix(b, "s"):
		return b[:len(b)-1] // s -> ""
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b[:len(b)-3]) > 0 {
			return b[:len(b)-1] // eed -> ee
		}
		return b
	}
	fired := false
	if hasSuffix(b, "ed") && containsVowel(b[:len(b)-2]) {
		b = b[:len(b)-2]
		fired = true
	} else if hasSuffix(b, "ing") && containsVowel(b[:len(b)-3]) {
		b = b[:len(b)-3]
		fired = true
	}
	if !fired {
		return b
	}
	switch {
	case hasSuffix(b, "at"), hasSuffix(b, "bl"), hasSuffix(b, "iz"):
		return append(b, 'e')
	case endsDoubleConsonant(b):
		last := b[len(b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return b[:len(b)-1]
		}
		return b
	case measure(b) == 1 && endsCVC(b):
		return append(b, 'e')
	}
	return b
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && containsVowel(b[:len(b)-1]) {
		b = append(b[:len(b)-1], 'i')
	}
	return b
}

// step2 maps double suffixes to single ones when m(stem) > 0. The pairs
// follow Porter's original table (with the published LOGI/BLI revisions
// omitted to stay faithful to the 1980 text).
var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
	{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
	{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
	{"biliti", "ble"},
}

func step2(b []byte) []byte {
	for _, rule := range step2Rules {
		if out, ok := replaceSuffix(b, rule.from, rule.to, 1); ok {
			return out
		} else if hasSuffix(b, rule.from) {
			return b // matched longest suffix but condition failed: stop
		}
	}
	return b
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
	{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(b []byte) []byte {
	for _, rule := range step3Rules {
		if out, ok := replaceSuffix(b, rule.from, rule.to, 1); ok {
			return out
		} else if hasSuffix(b, rule.from) {
			return b
		}
	}
	return b
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(b []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(b, s) {
			continue
		}
		stem := b[:len(b)-len(s)]
		if s == "ion" {
			n := len(stem)
			if n == 0 || (stem[n-1] != 's' && stem[n-1] != 't') {
				return b
			}
		}
		if measure(stem) > 1 {
			return stem
		}
		return b
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stem := b[:len(b)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return b
}

func step5b(b []byte) []byte {
	if measure(b) > 1 && endsDoubleConsonant(b) && b[len(b)-1] == 'l' {
		return b[:len(b)-1]
	}
	return b
}
