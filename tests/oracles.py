"""Independent reference implementations used to check the library.

Everything here is written from the measure definitions directly, in the
most literal way possible (explicit loops, quadratic scans, numeric
quadrature), and deliberately shares no code with the package. Tests
compare the package's optimized paths against these.
"""

from __future__ import annotations

import math


def oracle_p_at_k(ranked_docs, qrels, k):
    hits = 0
    for position in range(min(k, len(ranked_docs))):
        doc = ranked_docs[position]
        if doc in qrels and qrels[doc] >= 1:
            hits += 1
    return hits / k


def oracle_ndcg(ranked_docs, qrels, cutoff=None):
    depth = len(ranked_docs) if cutoff is None else cutoff
    dcg = 0.0
    for position, doc in enumerate(ranked_docs):
        if position >= depth:
            break
        gain = qrels.get(doc, 0)
        dcg += gain / math.log2(position + 2)
    # The ideal ranking is every judged-relevant doc in grade order; it is
    # truncated by the cutoff only, never by how much the system retrieved.
    ideal_gains = sorted((g for g in qrels.values() if g > 0), reverse=True)
    if cutoff is not None:
        ideal_gains = ideal_gains[:cutoff]
    idcg = 0.0
    for position, gain in enumerate(ideal_gains):
        idcg += gain / math.log2(position + 2)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def oracle_bpref(ranked_docs, qrels):
    relevant = [d for d, g in qrels.items() if g >= 1]
    nonrelevant = [d for d, g in qrels.items() if g == 0]
    r, n = len(relevant), len(nonrelevant)
    if r == 0:
        return 0.0
    total = 0.0
    for position, doc in enumerate(ranked_docs):
        if doc not in qrels or qrels[doc] < 1:
            continue
        # Quadratic scan: count judged-nonrelevant docs ranked above this one.
        above = 0
        for earlier in ranked_docs[:position]:
            if earlier in qrels and qrels[earlier] == 0:
                above += 1
        if n == 0:
            total += 1.0
        else:
            total += 1.0 - min(above, min(r, n)) / min(r, n)
    return total / r


def oracle_mean(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def oracle_diff_counts(a_docs, b_docs):
    added = removed = changed = unchanged = 0
    for url in b_docs:
        if url not in a_docs:
            added += 1
    for url in a_docs:
        if url not in b_docs:
            removed += 1
        elif a_docs[url] != b_docs[url]:
            changed += 1
        else:
            unchanged += 1
    return {"added": added, "removed": removed, "changed": changed, "unchanged": unchanged}


def oracle_diff_urls(a_docs, b_docs):
    """The sorted URLs of each class, from set algebra over the two maps."""
    a_urls, b_urls = set(a_docs), set(b_docs)
    shared = a_urls & b_urls
    return {
        "added": sorted(b_urls - a_urls),
        "removed": sorted(a_urls - b_urls),
        "changed": sorted(url for url in shared if a_docs[url] != b_docs[url]),
        "unchanged": sorted(url for url in shared if a_docs[url] == b_docs[url]),
    }


def _t_pdf(x, df):
    log_density = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1.0) / 2.0 * math.log1p(x * x / df)
    )
    return math.exp(log_density)


def oracle_t_cdf(t, df, intervals=4000):
    """Student t CDF by composite Simpson quadrature of the density from 0
    to |t|; accurate to far below 1e-9 for |t| <= 60."""
    magnitude = abs(t)
    if magnitude == 0.0:
        return 0.5
    h = magnitude / intervals
    total = _t_pdf(0.0, df) + _t_pdf(magnitude, df)
    for i in range(1, intervals):
        weight = 4.0 if i % 2 else 2.0
        total += weight * _t_pdf(i * h, df)
    half_area = total * h / 3.0
    return 0.5 - half_area if t < 0 else 0.5 + half_area


def oracle_two_sided_p(t, df):
    return 2.0 * (1.0 - oracle_t_cdf(abs(t), df))


def oracle_pooled_t(a, b):
    """Textbook pooled two-sample t statistic and df."""
    mean_a, mean_b = oracle_mean(a), oracle_mean(b)
    ss_a = sum((x - mean_a) ** 2 for x in a)
    ss_b = sum((x - mean_b) ** 2 for x in b)
    df = len(a) + len(b) - 2
    pooled = (ss_a + ss_b) / df
    se = math.sqrt(pooled * (1.0 / len(a) + 1.0 / len(b)))
    return (mean_a - mean_b) / se, df


def oracle_run_error(text, expected_tag=None):
    """The first fault of a TREC run file as (error class name, line,
    message), or None when the file is valid. Each non-blank line is
    checked in order for: six fields, an integer rank, a rank of at least
    1, a numeric score, a finite score, the tag of the first record, and a
    document not yet seen for its topic. Then the file must hold a record,
    and its tag must be the expected one."""
    seen_pairs = []
    first_tag = None
    first_tag_line = None
    line_number = 0
    for raw_line in text.splitlines():
        line_number += 1
        fields = raw_line.split()
        if len(fields) == 0:
            continue
        if len(fields) != 6:
            message = "expected 6 fields (topic iteration doc rank score tag), got " + str(len(fields))
            return ("ParseError", line_number, message)
        topic = fields[0]
        doc = fields[2]
        rank_text = fields[3]
        score_text = fields[4]
        tag = fields[5]
        try:
            rank = int(rank_text)
        except ValueError:
            return ("ParseError", line_number, "non-integer rank " + repr(rank_text))
        if rank < 1:
            return ("ParseError", line_number, "rank must be >= 1, got " + str(rank))
        try:
            score = float(score_text)
        except ValueError:
            return ("ParseError", line_number, "non-numeric score " + repr(score_text))
        if math.isnan(score) or math.isinf(score):
            return ("ParseError", line_number, "non-finite score " + repr(score_text))
        if first_tag is None:
            first_tag = tag
            first_tag_line = line_number
        elif tag != first_tag:
            return ("DataError", line_number, f"conflicting run tags {first_tag!r} and {tag!r}")
        if (topic, doc) in seen_pairs:
            return ("DataError", line_number, f"duplicate document {doc!r} for topic {topic!r}")
        seen_pairs.append((topic, doc))
    if first_tag is None:
        return ("DataError", None, "run file contains no records")
    if expected_tag is not None and first_tag != expected_tag:
        message = f"run tag {first_tag!r} does not match expected tag {expected_tag!r}"
        return ("DataError", first_tag_line, message)
    return None
