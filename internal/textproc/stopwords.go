package textproc

import "strings"

// stopwordList is a standard English stop-word list (the classic
// snowball/NLTK set plus a handful of corpus-frequent function words).
// The paper removes stop words "for the mining and topic modeling
// steps" and re-inserts them for display (§7.1).
var stopwordList = strings.Fields(`
a about above after again against all am an and any are aren't as at
be because been before being below between both but by
can cannot can't could couldn't
did didn't do does doesn't doing don't down during
each
few for from further
had hadn't has hasn't have haven't having he he'd he'll he's her here
here's hers herself him himself his how how's
i i'd i'll i'm i've if in into is isn't it it's its itself
let's
me more most mustn't my myself
no nor not
of off on once only or other ought our ours ourselves out over own
same shan't she she'd she'll she's should shouldn't so some such
than that that's the their theirs them themselves then there there's
these they they'd they'll they're they've this those through to too
under until up upon us
very via
was wasn't we we'd we'll we're we've were weren't what what's when
when's where where's which while who who's whom why why's will with
won't would wouldn't
you you'd you'll you're you've your yours yourself yourselves
also among amongst anyhow anyway became become becomes becoming
besides beyond cant co con could de describe done due eg etc even ever
every everyone everything everywhere except fifty first five former
formerly four found get give go had hence hereafter hereby herein
hereupon however hundred ie inc indeed interest latter latterly least
less ltd made many may meanwhile might mine moreover much must namely
neither never nevertheless next nine nobody none noone nothing now
nowhere often one onto others otherwise part per perhaps please put
rather re seem seemed seeming seems several she since six sixty
someone something sometime sometimes somewhere still take ten thence
thereafter thereby therefore therein thereupon thick thin third three
thru thus together toward towards twelve twenty two un unless
us used using various want wants well whatever whence whenever
whereafter whereas whereby wherein whereupon wherever whether whither
whoever whole whose within without yet
`)

var stopwords = func() map[string]bool {
	m := make(map[string]bool, len(stopwordList))
	for _, w := range stopwordList {
		m[w] = true
	}
	return m
}()

// IsStopword reports whether the lowercase token w is an English stop
// word.
func IsStopword(w string) bool { return stopwords[w] }
