// Package nlp provides the light natural-language machinery the Falcon-style
// question/answering pipeline is built from: tokenisation, stopword
// filtering, a light suffix stemmer, a dictionary-driven named-entity
// recogniser, and the answer-type classifier used by the Question Processing
// module.
//
// Falcon's real NLP stack (named-entity recognition, syntactic parsing,
// WordNet-based semantics) is proprietary and far heavier than needed here:
// the paper treats the modules as black boxes characterised by their
// resource profiles (Table 2, Table 3). This package reproduces the
// functional interfaces — keywords in, typed candidate answers out — so the
// distributed architecture has real work to schedule, while the virtual cost
// model (package qa) reproduces the paper's timing profile.
package nlp

import (
	"strings"
	"unicode"
)

// Token is a normalised word occurrence within a text.
type Token struct {
	// Text is the lower-cased surface form.
	Text string
	// Stem is the stemmed form used for matching.
	Stem string
	// Pos is the token index within its text (0-based).
	Pos int
	// Capitalized records whether the original form started with an
	// upper-case letter (a cheap NER feature).
	Capitalized bool
	// Numeric records whether the token is all digits.
	Numeric bool
	// Term is the stem's interned term ID in the collection the token
	// belongs to (see corpus.Collection.TermID); 0 for text outside any
	// collection, such as a question. Keyword matching compares Term IDs,
	// never Stem strings. The field sits in the padding after the two
	// bools, so a Token stays 48 bytes.
	Term uint32
}

// Tokenize splits text into normalised tokens. Words are maximal runs of
// letters, digits or apostrophes; everything else separates tokens.
func Tokenize(text string) []Token {
	var tokens []Token
	start := -1
	runes := []rune(text)
	flush := func(end int) {
		if start < 0 {
			return
		}
		word := string(runes[start:end])
		start = -1
		lower := strings.ToLower(word)
		tokens = append(tokens, Token{
			Text:        lower,
			Stem:        Stem(lower),
			Pos:         len(tokens),
			Capitalized: unicode.IsUpper(runes[0]) || unicode.IsUpper([]rune(word)[0]),
			Numeric:     isNumeric(word),
		})
	}
	for i, r := range runes {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(runes))
	// Fix Capitalized: it must reflect each word's own first rune, not the
	// text's. Recompute properly in a second pass over the original runs.
	return retagCapitals(runes, tokens)
}

// retagCapitals walks the rune stream again and sets Capitalized per token.
func retagCapitals(runes []rune, tokens []Token) []Token {
	idx := 0
	start := -1
	for i, r := range runes {
		isWord := unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\''
		if isWord && start < 0 {
			start = i
			if idx < len(tokens) {
				tokens[idx].Capitalized = unicode.IsUpper(r)
			}
		} else if !isWord && start >= 0 {
			start = -1
			idx++
		}
	}
	return tokens
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// Words returns just the lower-cased word strings of a text.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// stopwords is a compact English function-word list. Keyword selection
// (Question Processing) and indexing both skip these.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a an and are as at be been but by can could did do does for from had has
have he her him his how i if in into is it its me my no nor not of on or
our she so such that the their them then there these they this those to
was we were what when where which who whom why will with would you your
about above after again against all am any because before being below
between both down during each few further here more most off once only
other out over own same some than too under until up very s t don now
name names called`) {
		stopwords[w] = true
	}
}

// IsStopword reports whether the lower-cased word is a function word.
func IsStopword(w string) bool { return stopwords[strings.ToLower(w)] }

// ContentWords filters tokens down to non-stopword tokens.
func ContentWords(tokens []Token) []Token {
	var out []Token
	for _, t := range tokens {
		if !IsStopword(t.Text) {
			out = append(out, t)
		}
	}
	return out
}

// Stem applies a light suffix-stripping stemmer (a simplified Porter step 1)
// sufficient for matching question keywords against document terms.
func Stem(w string) string {
	if len(w) <= 3 {
		return w
	}
	// Order matters: longest suffixes first.
	suffixes := []struct{ suf, rep string }{
		{"ational", "ate"},
		{"ization", "ize"},
		{"fulness", "ful"},
		{"ousness", "ous"},
		{"iveness", "ive"},
		{"tional", "tion"},
		{"biliti", "ble"},
		{"lities", "lity"},
		{"ingly", ""},
		{"edly", ""},
		{"ments", "ment"},
		{"ation", "ate"},
		{"ness", ""},
		{"ions", "ion"},
		{"ings", "ing"},
		{"ing", ""},
		{"ies", "y"},
		{"ied", "y"},
		{"est", ""},
		{"ed", ""},
		{"ly", ""},
		{"es", ""},
		{"s", ""},
	}
	for _, s := range suffixes {
		if strings.HasSuffix(w, s.suf) && len(w)-len(s.suf)+len(s.rep) >= 3 {
			stem := w[:len(w)-len(s.suf)] + s.rep
			// Undouble final consonants produced by -ing/-ed stripping
			// ("running" → "runn" → "run").
			if n := len(stem); n >= 2 && stem[n-1] == stem[n-2] && !isVowelByte(stem[n-1]) {
				stem = stem[:n-1]
			}
			return stem
		}
	}
	return w
}

func isVowelByte(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
