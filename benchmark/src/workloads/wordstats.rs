//! `wordstats`: one parallel sweep over a seeded corpus of 2 M
//! pseudo-words feeding six fresh reducers of mixed kinds — the "many
//! coordinated accumulators over one pass" use. About five cache-missing
//! lookups per word sit beside real user work, so lookup gains show up
//! diluted, reducer creation is paid every rep, and scheduler start-up
//! shows in the tail.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cilkm::prelude::*;

use super::{region, Profile, SplitMix64, Workload};

const WORDS: usize = 2_000_000;
const GRAIN: usize = 2048;
/// Palindromes at least this long go into the ordered list.
const LONG: usize = 4;
const MAX_LEN: usize = 10;

/// A lowercase pseudo-word of 2..=10 letters, stored inline so the
/// corpus is one flat allocation.
#[derive(Copy, Clone)]
pub struct Word {
    len: u8,
    letters: [u8; MAX_LEN],
}

impl Word {
    fn as_bytes(&self) -> &[u8] {
        &self.letters[..usize::from(self.len)]
    }
}

fn is_palindrome(w: &[u8]) -> bool {
    (0..w.len() / 2).all(|i| w[i] == w[w.len() - 1 - i])
}

/// What one sweep computes; the serial elision's result is the oracle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    count: u64,
    total_len: u64,
    longest: Option<usize>,
    any_palindrome: bool,
    first_letter: Vec<u64>,
    /// Indices of long palindromes, in corpus order: a non-commutative
    /// reduction, so a wrong merge order shows.
    long_palindromes: Vec<u32>,
}

pub struct Corpus {
    words: Vec<Word>,
    oracle: Stats,
}

fn serial_sweep(words: &[Word]) -> Stats {
    let mut s = Stats {
        first_letter: vec![0; 26],
        ..Stats::default()
    };
    for (i, word) in words.iter().enumerate() {
        let w = word.as_bytes();
        s.count += 1;
        s.total_len += w.len() as u64;
        s.longest = s.longest.max(Some(w.len()));
        let pal = is_palindrome(w);
        s.any_palindrome |= pal;
        s.first_letter[usize::from(w[0] - b'a')] += 1;
        if pal && w.len() >= LONG {
            s.long_palindromes.push(i as u32);
        }
    }
    s
}

pub struct Wordstats {
    corpus: Arc<Corpus>,
    last: Option<Stats>,
    reps_done: u64,
}

impl Workload for Wordstats {
    type Input = Corpus;
    const NAME: &'static str = "wordstats";
    const ITEM: &'static str = "word";

    fn generate(seed: u64) -> Corpus {
        let mut rng = SplitMix64(seed);
        let words: Vec<Word> = (0..WORDS)
            .map(|_| {
                let mut bits = rng.next();
                let len = 2 + (bits % 9) as usize;
                bits >>= 8;
                let mut letters = [0u8; MAX_LEN];
                for l in letters.iter_mut().take(len) {
                    *l = b'a' + (bits % 26) as u8;
                    bits /= 26;
                }
                Word {
                    len: len as u8,
                    letters,
                }
            })
            .collect();
        let oracle = serial_sweep(&words);
        Corpus { words, oracle }
    }

    fn new(corpus: Arc<Corpus>, _pool: &ReducerPool) -> Self {
        // The reducers are made fresh inside every rep.
        Wordstats {
            corpus,
            last: None,
            reps_done: 0,
        }
    }

    fn items_per_rep(&self) -> u64 {
        WORDS as u64
    }

    fn serial_rep(&mut self) {
        black_box(serial_sweep(black_box(&self.corpus.words)));
    }

    fn rep(&mut self, pool: &ReducerPool, prof: &mut Profile) -> Option<Instant> {
        let count = Reducer::new(pool, SumMonoid::<u64>::new(), 0);
        let total_len = Reducer::new(pool, SumMonoid::<u64>::new(), 0);
        let longest = Reducer::new(pool, MaxMonoid::<usize>::new(), None);
        let any_palindrome = Reducer::new(pool, OrMonoid::new(), false);
        // A custom monoid whose identity allocates: element-wise add.
        let first_letter = Reducer::new(
            pool,
            FnMonoid::new(
                || vec![0u64; 26],
                |l: &mut Vec<u64>, r: Vec<u64>| {
                    for (a, b) in l.iter_mut().zip(r) {
                        *a += b;
                    }
                },
            ),
            vec![0u64; 26],
        );
        let long_palindromes = Reducer::new(pool, ListMonoid::<u32>::new(), Vec::new());

        region(pool, prof, || {
            parallel_for_each(&self.corpus.words, GRAIN, &|i, word| {
                let w = word.as_bytes();
                count.add(1);
                total_len.add(w.len() as u64);
                longest.observe(w.len());
                let pal = is_palindrome(w);
                any_palindrome.update(|v| *v |= pal);
                first_letter.update(|h| h[usize::from(w[0] - b'a')] += 1);
                if pal && w.len() >= LONG {
                    long_palindromes.push(i as u32);
                }
            });
        });

        self.last = Some(Stats {
            count: count.into_inner(),
            total_len: total_len.into_inner(),
            longest: longest.into_inner(),
            any_palindrome: any_palindrome.into_inner(),
            first_letter: first_letter.into_inner(),
            long_palindromes: long_palindromes.into_inner(),
        });
        self.reps_done += 1;
        None
    }

    fn verify(&mut self) -> Result<(), String> {
        let got = self.last.take().ok_or("no sweep result to check")?;
        let want = &self.corpus.oracle;
        if &got == want {
            return Ok(());
        }
        // Name the reducer that differs; the list can be long.
        let field = if got.count != want.count {
            "count"
        } else if got.total_len != want.total_len {
            "total_len"
        } else if got.longest != want.longest {
            "longest"
        } else if got.any_palindrome != want.any_palindrome {
            "any_palindrome"
        } else if got.first_letter != want.first_letter {
            "first_letter"
        } else {
            "long_palindromes (order included)"
        };
        Err(format!("reducer `{field}` differs from the serial sweep"))
    }

    fn lookups_issued(&self) -> Option<u64> {
        let per_rep = 5 * WORDS as u64 + self.corpus.oracle.long_palindromes.len() as u64;
        Some(self.reps_done * per_rep)
    }
}
