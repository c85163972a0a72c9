"""Whole-package sign-off suite.

Each test prints one visible verdict line with its measured numbers, so
a plain `pytest -v` run doubles as the release checklist. Every check
compares the package against an independent brute-force oracle or an
explicit behavioral bar; tolerances live next to the assertions.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np
import pytest

from pada_lab.corpus import (
    EOS,
    Example,
    SyntheticSpec,
    Vocabulary,
    build_vocabulary,
    domain_token,
    generate_synthetic,
)
from pada_lab.drf import (
    DomainProfile,
    DrfScore,
    EmbeddingTable,
    PromptAnnotation,
    annotate_prompt,
    domain_token_counts,
    extract_drf_set,
    mutual_information,
    ratio_filter,
)
from pada_lab.harness import ExperimentConfig, run_loo
from pada_lab.inference import diverse_beam_search
from pada_lab.metrics import f1_binary, f1_macro
from pada_lab.model import (
    ModelConfig,
    encode,
    init_params,
    loss_and_grads,
    pad_batch,
    save_checkpoint,
)
from pada_lab.training import TaskInstance, mix_tasks
from tests.conftest import random_corpus
from tests.oracles import (
    annotation_bruteforce,
    beam_exhaustive,
    drf_bruteforce,
    f1_bruteforce,
    macro_f1_bruteforce,
    mi_bruteforce,
    occurrence_counts,
    teacher_forced_logp,
)


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[check] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_drf_extraction_matches_bruteforce(capsys):
    """MI scores, ratio predicates, and final feature sets against the
    reference pipeline on 20 random corpora."""
    rng = np.random.default_rng(101)
    problems: list[str] = []
    worst_mi = 0.0
    t0 = time.perf_counter()
    for c in range(20):
        docs, ds = random_corpus(rng)
        domains = list(docs)
        target = domains[int(rng.integers(len(domains)))]
        rho = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        k = int(rng.integers(3, 9))

        mi_got = mutual_information(ds, domains, target)
        mi_want = mi_bruteforce(docs, target)
        if set(mi_got) != set(mi_want):
            problems.append(f"corpus {c}: MI vocab mismatch")
            continue
        worst_mi = max(worst_mi, max(abs(mi_got[t] - mi_want[t]) for t in mi_want))

        occ = occurrence_counts(docs)
        inside = occ[target]
        outside: dict[str, int] = {}
        for d, cnt in occ.items():
            if d == target:
                continue
            for tok, v in cnt.items():
                outside[tok] = outside.get(tok, 0) + v
        passes, _, _ = ratio_filter(domain_token_counts(ds, domains), target, rho)
        for tok in mi_want:
            c_in = inside.get(tok, 0)
            want_pass = c_in > 0 and outside.get(tok, 0) / c_in <= rho
            if passes(tok) != want_pass:
                problems.append(f"corpus {c}: ratio predicate differs on {tok!r}")

        want = drf_bruteforce(docs, target, rho=rho, k=k)
        if not want:
            with pytest.raises(ValueError):
                extract_drf_set(ds, domains, target, rho=rho, k_drf=k)
            continue
        prof = extract_drf_set(ds, domains, target, rho=rho, k_drf=k)
        if [d.token for d in prof.drfs] != [t for t, _, _ in want]:
            problems.append(f"corpus {c}: feature set mismatch")
            continue
        for entry, (_, mi, ratio) in zip(prof.drfs, want):
            if abs(entry.mi - mi) > 1e-12 or abs(entry.ratio - ratio) > 1e-12:
                problems.append(f"corpus {c}: score drift on {entry.token!r}")
    dt = time.perf_counter() - t0
    ok = not problems and worst_mi <= 1e-12 and dt < 10.0
    _verdict(
        capsys, "drf-oracle", ok,
        f"20 corpora, max MI err {worst_mi:.2e}, {dt:.2f}s"
        + (f"; {problems[:3]}" if problems else ""),
    )


def test_prompt_annotation_matches_bruteforce(capsys):
    """Nearest-feature selection, tie-breaks included, on 100 random
    (example, profile, embedding) triples."""
    rng = np.random.default_rng(202)
    mismatches = 0
    for trial in range(100):
        dim = int(rng.integers(2, 5))
        known = [f"tok{i}" for i in range(int(rng.integers(4, 12)))]
        unseen = [f"oov{i}" for i in range(3)]
        # Integer-grid vectors force exact distance ties, so the
        # rank-then-token ordering actually gets exercised.
        vectors = {t: rng.integers(0, 3, size=dim).astype(float) for t in known}
        vectors["<unk>"] = rng.integers(0, 3, size=dim).astype(float)
        pool = known + unseen

        n_text = int(rng.integers(1, 9))
        text_tokens = [pool[int(rng.integers(len(pool)))] for _ in range(n_text)]
        order = rng.permutation(len(pool))
        n_prof = int(rng.integers(1, 8))
        prof_tokens = [pool[i] for i in order[:n_prof]]
        m = int(rng.integers(0, n_prof + 2))

        example = Example(
            id=f"trial-{trial}", text=" ".join(text_tokens), label="pos", domain="dom",
        )
        profile = DomainProfile(
            name="dom",
            drfs=tuple(DrfScore(token=t, mi=0.0, ratio=0.0) for t in prof_tokens),
            token_counts={t: 1 for t in prof_tokens},
        )
        emb = EmbeddingTable(dim=dim, vectors=vectors)
        got = annotate_prompt(example, profile, emb, m=m)
        want = annotation_bruteforce(
            text_tokens, prof_tokens,
            {t: list(v) for t, v in vectors.items()}, "<unk>", m,
        )
        if list(got.drf_tokens) != want:
            mismatches += 1
    _verdict(
        capsys, "annotation-oracle", mismatches == 0,
        f"100 triples, {mismatches} mismatches",
    )


def test_gradients_match_central_difference_everywhere(capsys):
    """Analytic gradients against central differences for every tensor,
    both heads, up to 200 coordinates per tensor (full tensor when it
    is smaller than that)."""
    cfg = ModelConfig(
        vocab_size=12, n_classes=2, d_model=8, n_layers=2, n_heads=2,
        d_ffn=16, max_input_len=12, max_output_len=6, conv_filters=3,
        conv_width=3, seed=9,
    )
    params = {k: v.astype(np.float64) for k, v in init_params(cfg).items()}
    disc = [
        TaskInstance(task="disc", input_ids=(6, 7, 8, 9), example_id="d0", target_class=0),
        TaskInstance(task="disc", input_ids=(10, 11), example_id="d1", target_class=1),
    ]
    gen = [
        TaskInstance(task="gen", input_ids=(6, 7, 8, 9), example_id="g0", target_ids=(11, 6, EOS)),
        TaskInstance(task="gen", input_ids=(10, 11), example_id="g1", target_ids=(7, EOS)),
    ]
    rng = np.random.default_rng(303)
    eps = 1e-4
    worst = 0.0
    n_coords = 0
    n_refined = 0
    t0 = time.perf_counter()

    def numeric_grad(batch, flat, idx, step):
        keep = flat[idx]
        flat[idx] = keep + step
        up, _ = loss_and_grads(cfg, params, batch)
        flat[idx] = keep - step
        down, _ = loss_and_grads(cfg, params, batch)
        flat[idx] = keep
        return (up - down) / (2 * step)

    for batch, wanted in ((disc, lambda n: not n.startswith("dec")),
                          (gen, lambda n: not n.startswith("cls."))):
        _, grads = loss_and_grads(cfg, params, batch)
        for name in sorted(params):
            if not wanted(name):
                continue
            flat = params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            if flat.size <= 200:
                idxs = range(flat.size)
            else:
                idxs = rng.choice(flat.size, size=200, replace=False)
            for idx in idxs:
                numeric = numeric_grad(batch, flat, idx, eps)
                denom = max(abs(gflat[idx]), abs(numeric), 1e-6)
                rel = abs(gflat[idx] - numeric) / denom
                if rel > 1e-3:
                    # A ReLU or pooling kink inside the difference
                    # interval breaks the numeric estimate, not the
                    # gradient. Shrinking the step makes that artifact
                    # vanish; a real backprop error would persist.
                    numeric = numeric_grad(batch, flat, idx, eps / 10)
                    denom = max(abs(gflat[idx]), abs(numeric), 1e-6)
                    rel = abs(gflat[idx] - numeric) / denom
                    n_refined += 1
                worst = max(worst, rel)
                n_coords += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 60.0
    _verdict(
        capsys, "gradient-check", ok,
        f"{n_coords} coords, max rel err {worst:.2e}, "
        f"{n_refined} re-stepped at a kink, {dt:.1f}s",
    )


def test_beam_search_matches_exhaustive_and_plain_special_case(capsys):
    """Beam search in its plain special case (one diversity group, zero
    penalty), with a width covering the whole sequence space, equals
    exhaustive search on 100 random tiny decoders. The oracle scores
    each prefix with the training decoder, not the incremental decoder
    that the search steps."""
    rng = np.random.default_rng(404)
    problems = 0
    worst_score = 0.0
    t0 = time.perf_counter()
    for i in range(100):
        vocab_size = 6 + (i % 2)
        horizon = 3 if i % 3 == 0 else 2
        cfg = ModelConfig(
            vocab_size=vocab_size, n_classes=2, d_model=8, n_layers=1,
            n_heads=2, d_ffn=8, max_input_len=8, max_output_len=horizon,
            conv_filters=3, conv_width=3, seed=1000 + i,
        )
        params = init_params(cfg)
        src = [int(x) for x in rng.integers(1, vocab_size, size=int(rng.integers(2, 5)))]
        ids, mask = pad_batch([src])
        enc = encode(cfg, params, ids, mask)

        def score_fn(prefix):
            return teacher_forced_logp(cfg, params, enc, mask, [prefix])[0]

        want = beam_exhaustive(score_fn, vocab_size, EOS, horizon, top=4)
        got = diverse_beam_search(
            cfg, params, enc, mask,
            ExperimentConfig(beam_size=vocab_size ** horizon, num_groups=1,
                             diversity_penalty=0.0),
            4,
        )
        if [h.ids for h in got] != [seq for seq, _ in want]:
            problems += 1
            continue
        worst_score = max(
            worst_score,
            max(abs(h.raw_score - s) for h, (_, s) in zip(got, want)),
        )
    dt = time.perf_counter() - t0
    ok = problems == 0 and worst_score <= 1e-9
    _verdict(
        capsys, "beam-oracle", ok,
        f"100 models, {problems} mismatches, max score err {worst_score:.2e}, {dt:.1f}s",
    )


def test_f1_matches_confusion_oracle(capsys):
    """Binary and macro F1 against confusion-matrix arithmetic on 1000
    random prediction vectors, equality taken exactly."""
    rng = np.random.default_rng(505)
    mismatches = 0
    for trial in range(1000):
        three_way = trial % 3 == 0
        labels = ("a", "b", "c") if three_way else ("neg", "pos")
        n = int(rng.integers(1, 41))
        y_true = [str(x) for x in rng.choice(labels, size=n)]
        y_pred = [str(x) for x in rng.choice(labels, size=n)]
        if not three_way:
            if f1_binary(y_true, y_pred, "pos", labels) != f1_bruteforce(y_true, y_pred, "pos"):
                mismatches += 1
        if f1_macro(y_true, y_pred, labels) != macro_f1_bruteforce(y_true, y_pred, list(labels)):
            mismatches += 1
    _verdict(
        capsys, "metric-oracle", mismatches == 0,
        f"1000 vectors, {mismatches} mismatches",
    )


def test_task_mixture_hits_requested_rate(capsys):
    """Generative share of a 10,000-instance mixture lands within four
    binomial standard errors of the requested rate."""
    name = domain_token("arcade")
    vocab = Vocabulary.from_tokens(["spark0", "spark1", "drift2", name])
    example = Example(id="mix-0", text="spark0 spark1", label="pos", domain="arcade")
    annotation = PromptAnnotation(
        example_id="mix-0", domain="arcade", drf_tokens=("drift2",), distances=(0.0,),
    )
    pairs = [(example, annotation)] * 10_000
    details = []
    ok = True
    for alpha, seed in ((0.1, 606), (0.75, 607)):
        out = mix_tasks(
            pairs, alpha, np.random.default_rng(seed), vocab,
            ["neg", "pos"], max_input_len=16, max_output_len=8,
        )
        frac = sum(1 for t in out if t.task == "gen") / len(out)
        bound = 4.0 * math.sqrt(alpha * (1.0 - alpha) / 10_000)
        ok = ok and len(out) == 10_000 and abs(frac - alpha) <= bound
        details.append(f"alpha {alpha}: frac {frac:.4f} (bound {bound:.4f})")
    _verdict(capsys, "mixture-rate", ok, "; ".join(details))


def test_checkpoint_bytes_scale_with_expert_count(capsys):
    """Expert-per-domain storage grows linearly with the number of
    source domains while the single prompt-driven model stays flat.
    Byte counts come off initialized weights through the real writer;
    training never changes a tensor's shape, so sizes are identical
    after training."""
    cfg = ExperimentConfig()
    single_bytes: dict[int, int] = {}
    expert_bytes: dict[int, int] = {}
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for n_sources in (2, 3, 4):
            ds = generate_synthetic(
                SyntheticSpec(n_domains=n_sources + 1, examples_per_domain=40)
            )
            sources = ds.domains[:-1]
            vocab = build_vocabulary(ds, sources)
            mcfg = cfg.model_config(len(vocab.id_to_token), len(ds.label_set))
            single = os.path.join(tmp, f"single_{n_sources}.bin")
            save_checkpoint(single, mcfg, init_params(mcfg))
            single_bytes[n_sources] = os.path.getsize(single)
            total = 0
            for d in sources:
                path = os.path.join(tmp, f"expert_{n_sources}_{d}.bin")
                save_checkpoint(path, mcfg, init_params(mcfg))
                total += os.path.getsize(path)
            expert_bytes[n_sources] = total
    spread = max(single_bytes.values()) / min(single_bytes.values()) - 1.0
    linear = all(expert_bytes[k] == k * single_bytes[k] for k in single_bytes)
    growing = expert_bytes[2] < expert_bytes[3] < expert_bytes[4]
    ok = spread <= 0.01 and linear and growing
    _verdict(
        capsys, "checkpoint-audit", ok,
        f"single {sorted(single_bytes.values())} (spread {spread:.2%}), "
        f"experts {[expert_bytes[k] for k in (2, 3, 4)]}",
    )


@pytest.mark.slow
def test_rerun_writes_byte_identical_csv(tmp_path, capsys):
    """Two identical leave-one-out invocations must emit the same CSV
    byte for byte."""
    dataset = generate_synthetic(SyntheticSpec(n_domains=3, examples_per_domain=30))
    cfg = ExperimentConfig(epochs=2)
    for tag in ("first", "second"):
        run_loo(dataset, ["pada", "noda"], cfg, tmp_path / tag)
    a = (tmp_path / "first" / "aggregate.csv").read_bytes()
    b = (tmp_path / "second" / "aggregate.csv").read_bytes()
    _verdict(
        capsys, "determinism", a == b,
        f"{len(a)} bytes vs {len(b)} bytes, equal: {a == b}",
    )


@pytest.mark.slow
def test_leave_one_out_desk_run_meets_bar(tmp_path, capsys):
    """Full default-corpus run with all five models inside the wall
    budget; the prompt-driven model keeps target F1 within 0.02 of the
    no-adaptation baseline everywhere and does not shift more on
    average."""
    dataset = generate_synthetic(SyntheticSpec())
    cfg = ExperimentConfig()
    models = ["pada", "pada-nc", "pada-dn", "noda", "moe"]
    t0 = time.perf_counter()
    cells = run_loo(dataset, models, cfg, tmp_path / "loo")
    wall = time.perf_counter() - t0
    targets = dataset.domains
    margins = {
        t: cells[("pada", t)]["target_f1"] - cells[("noda", t)]["target_f1"]
        for t in targets
    }
    pada_shift = statistics.mean(abs(cells[("pada", t)]["shift"]) for t in targets)
    noda_shift = statistics.mean(abs(cells[("noda", t)]["shift"]) for t in targets)
    pada_mean = statistics.mean(cells[("pada", t)]["target_f1"] for t in targets)
    noda_mean = statistics.mean(cells[("noda", t)]["target_f1"] for t in targets)
    ok = wall < 900.0 and min(margins.values()) >= -0.02 and pada_shift <= noda_shift
    _verdict(
        capsys, "desk-loo", ok,
        f"wall {wall:.0f}s, mean F1 pada {pada_mean:.4f} vs noda {noda_mean:.4f}, "
        f"worst margin {min(margins.values()):+.4f}, "
        f"mean |shift| pada {pada_shift:.4f} vs noda {noda_shift:.4f}",
    )
