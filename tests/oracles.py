"""Independent reference implementations used to check the library.

Everything here is written from the measure definitions directly, in the
most literal way possible (explicit loops, quadratic scans, numeric
quadrature), and deliberately shares no code with the package. Tests
compare the package's optimized paths against these.
"""

from __future__ import annotations

import math
import warnings


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


def oracle_manifest(text):
    """The (url, length) records of a corpus manifest in file order, or its
    first fault as (error class name, line, message). A line ends at LF only.
    A line that holds nothing but spaces and tabs is blank and skipped. Each
    other line is checked in order for: two tab-separated fields, a URL that
    is not empty once stripped, a length that is an integer once stripped, a
    length of at least 0, and a URL not yet seen."""
    records = []
    seen_urls = []
    line_number = 0
    for raw_line in text.split("\n"):
        line_number += 1
        fields = raw_line.split("\t")
        if len(fields) != 2:
            if raw_line.strip() == "":
                continue
            message = "expected 'url<TAB>length', got " + str(len(fields)) + " tab-separated fields"
            return ("ParseError", line_number, message)
        url = fields[0].strip()
        length_text = fields[1].strip()
        if url == "" and length_text == "":
            continue
        if url == "":
            return ("ParseError", line_number, "empty url")
        try:
            length = int(length_text)
        except ValueError:
            return ("ParseError", line_number, "non-integer length " + repr(length_text))
        if length < 0:
            return ("DataError", line_number, f"negative length {length} for url {url!r}")
        if url in seen_urls:
            return ("DataError", line_number, f"duplicate url {url!r}")
        seen_urls.append(url)
        records.append((url, length))
    return records


# The report renderers written one row and one value at a time, with
# csv.writer quoting every row. They read the records by field name only.


def _oracle_fmt3(value, undefined=False, star=False):
    if value is None:
        return "undef" if undefined else "-"
    if value == 0:
        value = 0.0
    return f"{value:.3f}" + ("*" if star else "")


def oracle_label(label):
    """Each character that is not printable as its unicode_escape form."""
    return "".join(
        ch if ch.isprintable() else ch.encode("unicode_escape").decode("ascii") for ch in label
    )


def oracle_render_table_text(table):
    names = [m.name for m in table.measures]
    lines = [[["system", "EE"]] + [["ARP", "RD", "DRI", "ER", "p"] for _ in names]]
    for row in table.rows:
        line = [[oracle_label(row.system_tag), oracle_label(row.ee_label)]]
        for name in names:
            cell = row.cells[name]
            line.append([
                _oracle_fmt3(cell.arp, star=bool(cell.significant)),
                # A missing RD is undefined beside an ARP, a missing DRI or ER
                # beside a p-value; any other missing value does not apply.
                _oracle_fmt3(cell.result_delta, cell.arp is not None),
                _oracle_fmt3(cell.delta_ri, cell.p_value is not None),
                _oracle_fmt3(cell.effect_ratio, cell.p_value is not None),
                _oracle_fmt3(cell.p_value),
            ])
        lines.append(line)
    widths = []
    for g in range(len(lines[0])):
        group_widths = []
        for i in range(len(lines[0][g])):
            group_widths.append(max(len(line[g][i]) for line in lines))
        widths.append(group_widths)

    def fmt(line):
        parts = ["  ".join(v.ljust(w) for v, w in zip(line[0], widths[0]))]
        for values, group_widths in zip(line[1:], widths[1:]):
            parts.append("  ".join(v.rjust(w) for v, w in zip(values, group_widths)))
        return " | ".join(parts)

    titles = []
    for name, group_widths in zip(names, widths[1:]):
        titles.append(name.ljust(sum(group_widths) + 2 * (len(group_widths) - 1)))
    head = (fmt([["", ""]]) + " | " + " | ".join(titles)).rstrip()
    out = [f"pivot: {oracle_label(table.pivot_tag)}", head]
    for line in lines:
        out.append(fmt(line))
    return "\n".join(out) + "\n"


def _oracle_csv(header, rows):
    """csv.writer quotes a field that holds a character of its line
    terminator, so each row is written with "\r\n", which makes it quote
    both line breaks, and then ends with "\n"."""
    import csv
    import io

    lines = [header]
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue()[:-2])
    return "\n".join(lines) + "\n"


def oracle_render_table_csv(table):
    rows = []
    for row in table.rows:
        for measure in table.measures:
            cell = row.cells[measure.name]
            significant = "" if cell.significant is None else str(cell.significant).lower()
            rows.append([
                row.system_tag, row.ee_label, measure.name, cell.arp, cell.result_delta,
                cell.delta_ri, cell.effect_ratio, cell.p_value, significant,
            ])
    header = "system,ee,measure,arp,result_delta,delta_ri,effect_ratio,p_value,significant"
    return _oracle_csv(header, rows)


def oracle_scatter_csv(points):
    rows = []
    for point in points:
        rows.append([
            point.system_tag, point.measure.name, point.pair.base_label,
            point.pair.target_label, point.x, point.y, str(point.excluded).lower(),
        ])
    return _oracle_csv("system,measure,base_ee,target_ee,effect_ratio,delta_ri,excluded", rows)


def oracle_series_csv(series):
    rows = []
    for topic, delta in series.entries:
        rows.append([
            series.system_tag, series.measure.name, series.pair.base_label,
            series.pair.target_label, topic, delta,
        ])
    return _oracle_csv("system,measure,base_ee,target_ee,topic,delta", rows)


# The persistence table's rows built in two passes, from the README's rules:
# every pivot row first, then each system's rows, each row scanning the cells.


# The numbers of a cell, as attribute paths: each mean's value, then each
# number field, in field order.
ORACLE_CELL_NUMBERS = (
    "arp_base.value", "arp_target.value", "pivot_arp_base.value", "pivot_arp_target.value",
    "result_delta", "ri_base", "ri_target", "delta_ri", "effect_ratio", "t_statistic",
    "p_value", "p_vs_pivot_base", "p_vs_pivot_target",
)


def oracle_table_rows(cells, ee_order):
    """The rows of the table of ``cells`` as (system, EE, {measure name:
    (ARP, RD, DRI, ER, p, significant)}): the pivot's rows,
    then each system's in tag order, one per label of ``ee_order`` that a
    cell names. A ValueError, with the package's message, for the first of
    these faults: zero cells; cells of two pivots; cell by cell in input
    order, a system that is its pivot, a number that is not finite, or a
    second cell of a system targeting an EE for a measure; an ``ee_order``
    that misses a label of the cells, or repeats one; then two cells that
    give the pivot two means in an EE."""
    if len(cells) == 0:
        raise ValueError("cannot build a table from zero cells")
    pivots = sorted({c.pivot_tag for c in cells})
    if len(pivots) > 1:
        raise ValueError(f"cells mix pivots: {pivots}")
    pivot = pivots[0]
    targeted = []
    for i, c in enumerate(cells):
        if c.system_tag == pivot:
            raise ValueError(f"cells[{i}]: system and pivot share the tag {pivot!r}")
        for path in ORACLE_CELL_NUMBERS:
            value = c
            for attribute in path.split("."):
                value = getattr(value, attribute)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"cells[{i}].{path} must be finite, got {value}")
        target = (c.system_tag, c.measure.name, c.pair.target_label)
        if target in targeted:
            raise ValueError(
                f"duplicate cell: system {c.system_tag!r} has two cells targeting "
                f"{c.pair.target_label!r} for {c.measure.name}"
            )
        targeted.append(target)
    labels = {c.pair.base_label for c in cells} | {c.pair.target_label for c in cells}
    uncovered = sorted(label for label in labels if label not in ee_order)
    if uncovered:
        raise ValueError(f"ee_order does not cover {uncovered}")
    if len(set(ee_order)) != len(ee_order):
        quoted = ", ".join(f'"{label}"' for label in ee_order)
        raise ValueError(f"ee_order repeats a label: [{quoted}]")
    ordered = sorted(
        cells,
        key=lambda c: (c.system_tag, c.measure.name, c.pair.base_label, c.pair.target_label),
    )
    names = sorted({c.measure.name for c in cells})
    order = [label for label in ee_order if label in labels]
    empty = (None, None, None, None, None, None)

    # First pass: the pivot's mean per (measure, EE), the same in every cell,
    # and the base of the first cell that targets each (measure, EE).
    pivot_means = {}
    pivot_bases = {}
    for c in ordered:
        name = c.measure.name
        if (name, c.pair.target_label) not in pivot_bases:
            pivot_bases[(name, c.pair.target_label)] = c.pair.base_label
        for ee, mean in (
            (c.pair.base_label, c.pivot_arp_base.value),
            (c.pair.target_label, c.pivot_arp_target.value),
        ):
            if (name, ee) not in pivot_means:
                pivot_means[(name, ee)] = mean
            elif pivot_means[(name, ee)] != mean:
                known = pivot_means[(name, ee)]
                raise ValueError(
                    f"inconsistent pivot means for {name} in {ee!r}: {known} vs {mean}"
                )

    # Second pass: the pivot's rows, then each system's.
    rows = []
    for ee in order:
        row = {}
        for name in names:
            if (name, ee) not in pivot_means:
                row[name] = empty
            elif (name, ee) not in pivot_bases:
                row[name] = (pivot_means[(name, ee)], 0.0, None, None, None, None)
            else:
                base_mean = pivot_means[(name, pivot_bases[(name, ee)])]
                mean = pivot_means[(name, ee)]
                # A zero base mean leaves RD undefined; the mean beside it
                # tells the renderer so.
                rd = None if base_mean == 0.0 else (base_mean - mean) / base_mean
                row[name] = (mean, rd, None, None, None, None)
        rows.append((pivot, ee, row))
    for system in sorted({c.system_tag for c in cells}):
        for ee in order:
            row = {}
            for name in names:
                mine = [c for c in ordered if c.system_tag == system and c.measure.name == name]
                targeting = [c for c in mine if c.pair.target_label == ee]
                based = [c for c in mine if c.pair.base_label == ee]
                if targeting:
                    c = targeting[0]
                    row[name] = (
                        c.arp_target.value, c.result_delta, c.delta_ri, c.effect_ratio,
                        c.p_value, c.p_vs_pivot_target < 0.05,
                    )
                elif based:
                    c = based[0]
                    row[name] = (c.arp_base.value, 0.0, 0.0, 1.0, 1.0, c.p_vs_pivot_base < 0.05)
                else:
                    row[name] = empty
            rows.append((system, ee, row))
    return rows


# The whole persist pipeline, from the raw files of a job to what cells.json
# and the series files hold, written from the README and the paper's
# definitions one snapshot, run and topic at a time.


def _oracle_measure(name):
    """(kind, k or cutoff, display name) of a manifest measure name."""
    lowered = name.lower()
    if lowered == "bpref":
        return ("bpref", None, "bpref")
    if lowered == "ndcg":
        return ("ndcg", None, "nDCG")
    if lowered.startswith("ndcg@"):
        cutoff = int(lowered[5:])
        return ("ndcg", cutoff, "nDCG@" + str(cutoff))
    k = int(lowered[2:])
    return ("p", k, "P@" + str(k))


def _oracle_score(measure, ranked_docs, qrels):
    kind, parameter, _ = measure
    if kind == "p":
        return oracle_p_at_k(ranked_docs, qrels, parameter)
    if kind == "ndcg":
        return oracle_ndcg(ranked_docs, qrels, parameter)
    return oracle_bpref(ranked_docs, qrels)


def _oracle_run(text):
    """topic -> doc ids by score descending, then doc id descending, at
    most 1,000 of them."""
    pairs = {}
    for line in text.splitlines():
        fields = line.split()
        if fields:
            topic, _, doc, _, score, _ = fields
            pairs.setdefault(topic, []).append((float(score), doc))
    rankings = {}
    for topic, scored in pairs.items():
        scored.sort(reverse=True)
        rankings[topic] = [doc for _, doc in scored][:1000]
    return rankings


def _oracle_qrels(text):
    judgments = {}
    for line in text.splitlines():
        fields = line.split()
        if fields:
            judgments.setdefault(fields[0], {})[fields[2]] = int(fields[3])
    return judgments


def _oracle_topics(text):
    topics = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            topics.add(line)
    return topics


def _oracle_exact_mean(values):
    """The mean of ``values`` with their sum rounded once, as the README says
    the package sums, so that deltas whose sum is 0 have a mean of 0."""
    # Imported here: bench/checks.py loads this module, and the benchmark's
    # peak_rss_mb counts its memory, which fractions (and decimal) would add to.
    from fractions import Fraction

    total = Fraction(0)
    for value in values:
        total += Fraction(value)
    return float(total) / len(values)


def _oracle_welch_t(a, b):
    """Textbook Welch t statistic and Welch-Satterthwaite df."""
    mean_a, mean_b = oracle_mean(a), oracle_mean(b)
    term_a = sum((x - mean_a) ** 2 for x in a) / (len(a) - 1) / len(a)
    term_b = sum((x - mean_b) ** 2 for x in b) / (len(b) - 1) / len(b)
    df = (term_a + term_b) ** 2 / (term_a**2 / (len(a) - 1) + term_b**2 / (len(b) - 1))
    return (mean_a - mean_b) / math.sqrt(term_a + term_b), df


def _oracle_t_test(a, b, variant):
    """(t, p) of the two-sided unpaired t-test. Two constant samples give
    t = 0 and p = 1 when their values are equal; otherwise p = 0 and the t
    statistic is undefined (None)."""
    if len(set(a)) == 1 and len(set(b)) == 1:
        return (0.0, 1.0) if a[0] == b[0] else (None, 0.0)
    try:
        from scipy import stats
    except ImportError:
        t, df = oracle_pooled_t(a, b) if variant == "student" else _oracle_welch_t(a, b)
        return t, oracle_two_sided_p(t, df)
    with warnings.catch_warnings():
        # scipy warns of a constant sample even beside one that varies.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = stats.ttest_ind(a, b, equal_var=variant == "student")
    return float(result.statistic), float(result.pvalue)


def oracle_persist(manifest, files):
    """What ``persisteval persist`` makes of a job: the manifest as a dict
    and ``files``, each path of the manifest -> its text. It gives
    {"cells": {(system, measure, base, target): the cell's cells.json
    record}, "series": {the same key: {topic: delta}}}, or 3, the exit
    code of a job whose topics make a cell impossible: no shared topic in
    a pair, or fewer than two topics to test in one of its snapshots."""
    options = manifest.get("options", {})
    pivot = manifest["pivot"]
    qrels = {}
    for environment in manifest["environments"]:
        qrels[environment["label"]] = _oracle_qrels(files[environment["qrels"]])
    runs = {}
    for run in manifest["runs"]:
        runs[run["tag"], run["environment"]] = _oracle_run(files[run["path"]])

    # A snapshot's topics: its topics file, else every topic its qrels and
    # runs hold. In strict mode (the default) each snapshot takes the core.
    topics = {}
    for environment in manifest["environments"]:
        label = environment["label"]
        if environment.get("topics"):
            topics[label] = _oracle_topics(files[environment["topics"]])
        else:
            topics[label] = set(qrels[label])
            for (_, run_label), rankings in runs.items():
                if run_label == label:
                    topics[label] |= set(rankings)
    if options.get("strict_topics", True):
        core = set.intersection(*topics.values())
        topics = {label: core for label in topics}
    for base, target in manifest["pairs"]:
        if not topics[base] & topics[target] or min(len(topics[base]), len(topics[target])) < 2:
            return 3

    variant = options.get("t_test", "student")
    systems = sorted({run["tag"] for run in manifest["runs"]} - {pivot})
    cells, series = {}, {}
    for name in manifest["measures"]:
        measure = _oracle_measure(name)

        def scores(tag, label):
            """Per-topic scores; a topic the run lacks or the qrels do not judge scores 0."""
            result = {}
            for topic in sorted(topics[label]):
                ranked = runs[tag, label].get(topic, [])
                result[topic] = _oracle_score(measure, ranked, qrels[label].get(topic, {}))
            return result

        for system in systems:
            for base, target in manifest["pairs"]:
                sys_b, sys_t = scores(system, base), scores(system, target)
                piv_b, piv_t = scores(pivot, base), scores(pivot, target)
                means = [oracle_mean(list(v.values())) for v in (sys_b, sys_t, piv_b, piv_t)]
                mean_sb, mean_st, mean_pb, mean_pt = means
                flags = []
                rd = ri = ri_t = dri = er = None
                if mean_sb == 0:
                    flags.append("result_delta: base mean is zero")
                else:
                    rd = (mean_sb - mean_st) / mean_sb
                if mean_pb == 0:
                    flags.append("ri_base: pivot mean is zero in the base environment")
                else:
                    ri = (mean_sb - mean_pb) / mean_pb
                if mean_pt == 0:
                    flags.append("ri_target: pivot mean is zero in the target environment")
                else:
                    ri_t = (mean_st - mean_pt) / mean_pt
                if ri is not None and ri_t is not None:
                    dri = ri - ri_t
                base_delta = _oracle_exact_mean([sys_b[t] - piv_b[t] for t in sys_b])
                if base_delta == 0:
                    flags.append("effect_ratio: mean base delta is zero")
                else:
                    er = _oracle_exact_mean([sys_t[t] - piv_t[t] for t in sys_t]) / base_delta
                sys_b_scores, sys_t_scores = list(sys_b.values()), list(sys_t.values())
                t, p = _oracle_t_test(sys_b_scores, sys_t_scores, variant)
                if t is None:
                    flags.append("t_statistic: non-finite (degenerate variance)")
                _, p_base = _oracle_t_test(sys_b_scores, list(piv_b.values()), variant)
                _, p_target = _oracle_t_test(sys_t_scores, list(piv_t.values()), variant)
                key = (system, measure[2], base, target)
                cells[key] = {
                    "system_tag": system,
                    "pivot_tag": pivot,
                    "measure": measure[2],
                    "pair": {"base": base, "target": target},
                    "arp_base": {"value": mean_sb, "n_topics": len(sys_b)},
                    "arp_target": {"value": mean_st, "n_topics": len(sys_t)},
                    "pivot_arp_base": {"value": mean_pb, "n_topics": len(piv_b)},
                    "pivot_arp_target": {"value": mean_pt, "n_topics": len(piv_t)},
                    "result_delta": rd,
                    "ri_base": ri,
                    "ri_target": ri_t,
                    "delta_ri": dri,
                    "effect_ratio": er,
                    "t_statistic": t,
                    "p_value": p,
                    "p_vs_pivot_base": p_base,
                    "p_vs_pivot_target": p_target,
                    "degenerate_t": t is None,
                    "undefined_flags": flags,
                }
                # A series covers the topics both snapshots of the pair hold.
                shared = sorted(topics[base] & topics[target])
                if options.get("series", "raw") == "raw":
                    series[key] = {t: sys_t[t] - sys_b[t] for t in shared}
                else:
                    series[key] = {t: (sys_t[t] - piv_t[t]) - (sys_b[t] - piv_b[t]) for t in shared}
    return {"cells": cells, "series": series}
