"""Losses, optimizer schedule, epoch construction, threshold calibration."""

import math

import numpy as np
import pytest

import entsel.numerics as nm
from entsel.encoder import (EncoderModel, classify_pairs_batch, encode_batch,
                            score_options_batch)
from entsel.errors import DataError, NumericError, ShapeError
from entsel.inference import ScoredOption, example_averaged_prf
from entsel.numerics import Tensor
from entsel.retrieval import train_bi_encoder
from entsel.text import SEP_ID
from entsel.training import (Adam, THRESHOLD_GRID, TrainConfig, _epoch_pairs,
                             bce_loss, ce_loss, scan_threshold, train,
                             write_loss_csv, write_manifest)

from conftest import TINY, small_instances, small_space, vocab_for


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_ce_loss_closed_forms():
    assert abs(ce_loss(t([[0.5, 0.5]]), [True]).item() - math.log(2)) < 1e-9
    assert abs(ce_loss(t([[0.9, 0.1]]), [True]).item() + math.log(0.9)) < 1e-9
    assert abs(ce_loss(t([[0.9, 0.1]]), [False]).item() + math.log(0.1)) < 1e-9
    # rows add up: the loss of a batch is the sum of its rows' losses
    got = ce_loss(t([[0.9, 0.1], [0.9, 0.1], [0.25, 0.75]]), [True, False, False]).item()
    assert abs(got + math.log(0.9) + math.log(0.1) + math.log(0.75)) < 1e-9


def test_ce_loss_validation():
    with pytest.raises(ShapeError):
        ce_loss(t([[0.2, 0.3, 0.5]]), [True])
    with pytest.raises(ShapeError):
        ce_loss(t([[0.5, 0.5]]), [True, False])
    with pytest.raises(ShapeError):
        ce_loss(t([0.5, 0.5]), [True])  # one unbatched pair
    with pytest.raises(DataError):
        ce_loss(t([[0.5, 0.5], [0.9, 0.9]]), [True, True])


def test_bce_loss_closed_forms():
    assert abs(bce_loss(t([0.5]), [True]).item() - math.log(2)) < 1e-9
    got = bce_loss(t([0.9, 0.1]), [True, False]).item()
    assert abs(got + math.log(0.9)) < 1e-9


def test_bce_loss_random_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        s = rng.uniform(0.05, 0.95, size=k)
        y = rng.integers(0, 2, size=k).astype(bool)
        want = -np.mean(np.where(y, np.log(s), np.log(1.0 - s)))
        assert abs(bce_loss(t(s), list(y)).item() - want) < 1e-12


def test_bce_loss_nonnegative_zero_only_when_exact():
    assert bce_loss(t([1.0, 0.0]), [True, False]).item() == 0.0
    rng = np.random.default_rng(11)
    for _ in range(30):
        s = rng.uniform(0.01, 0.99, size=4)
        assert bce_loss(t(s), [True, False, True, False]).item() > 0.0


def test_bce_loss_gradient_signs():
    s = t([0.3, 0.7], rg=True)
    with nm.ComputeGraph():
        nm.backward(bce_loss(s, [True, False]))
    assert s.grad[0] < 0  # raising a positive's score lowers the loss
    assert s.grad[1] > 0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_lr_leaves_params_untouched():
    p = t([1.0, 2.0], rg=True)
    p.grad = np.array([0.5, -0.5])
    before = p.data.copy()
    opt = Adam([p], lr=0.0)
    for _ in range(3):
        opt.step()
    assert np.array_equal(p.data, before)


def test_adam_first_step_closed_form():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = t([0.0, 0.0], rg=True)
    g = np.array([0.3, -2.0])
    p.grad = g.copy()
    Adam([p], lr=0.01).step()
    want = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.abs(p.data - want).max() < 1e-12


def test_adam_skips_gradless_params():
    p, q = t([1.0], rg=True), t([1.0], rg=True)
    p.grad = np.array([1.0])
    opt = Adam([p, q], lr=0.1)
    opt.step()
    assert q.data[0] == 1.0 and p.data[0] != 1.0


def test_adam_step_leaves_backward_grads_bitwise_untouched():
    # backward stores first gradients uncopied, so one buffer may back several
    # .grad fields; that is sound only while nothing updates a .grad in place
    model = EncoderModel(TINY, 20)
    ids = np.array([[2, 5, 6, 7, 3], [2, 8, 9, 10, 3]])
    with nm.ComputeGraph():
        reps = encode_batch(model, ids)
        probs = classify_pairs_batch(model, reps, 2, 5)
        scores = score_options_batch(model, reps, 2, 5, [(1, 2), (2, 4)])
        nm.backward(nm.add(nm.tsum(nm.log(probs, floor=1e-12)), nm.tsum(scores)))
    params = model.named_parameters()
    grads = {name: p.grad.copy() for name, p in params.items()}
    data = {name: p.data.copy() for name, p in params.items()}
    opt = Adam(model.parameters(), lr=1e-2)
    opt.step()
    opt.step()
    for name, p in params.items():
        assert p.grad.shape == grads[name].shape, name
        assert p.grad.tobytes() == grads[name].tobytes(), name
    assert not np.array_equal(params["cls_w"].data, data["cls_w"])


def test_adam_warmup_then_decay_schedule():
    opt = Adam([], lr=1.0, warmup_steps=10, total_steps=110)
    seen = []
    for _ in range(110):
        opt.step()
        seen.append(opt.current_lr())
    assert seen[4] == pytest.approx(0.5)       # halfway up the ramp
    assert seen[9] == pytest.approx(1.0)       # ramp tops out at lr
    assert seen[59] == pytest.approx(0.55)     # halfway down the decay
    assert seen[109] == pytest.approx(0.1)     # floor at Adam.FINAL_FRACTION * lr
    assert all(b <= a + 1e-12 for a, b in zip(seen[9:], seen[10:]))


def test_adam_constant_after_warmup_without_total():
    opt = Adam([], lr=2.0, warmup_steps=4)
    for _ in range(50):
        opt.step()
    assert opt.current_lr() == 2.0


def test_adam_zero_grad_clears():
    p = t([1.0], rg=True)
    p.grad = np.array([1.0])
    Adam([p]).zero_grad()
    assert p.grad is None


# ---------------------------------------------------------------------------
# epoch construction and the train loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    space = small_space(n=6)
    instances = small_instances(space, n=8, seed=7)
    vocab = vocab_for(space, instances)
    return space, instances, vocab


def test_epoch_pairs_one_to_one_negative_ratio(setup):
    space, instances, vocab = setup
    cfg = TrainConfig(mode="te", epochs=1)
    rng = np.random.default_rng(0)
    layouts = _epoch_pairs(instances, space, cfg, None, rng, vocab, TINY.max_len)
    n_gold = sum(len(i.gold) for i in instances)
    labels = [lay.labels[0] for lay in layouts]
    assert labels.count(True) == n_gold
    assert labels.count(False) == n_gold
    # a premise names its gold options, so it identifies the instance's gold set
    gold_of = {inst.premise: inst.gold for inst in instances}
    for lay in layouts:
        premise = vocab.decode(lay.ids[1:lay.ids.index(SEP_ID)])
        assert len(lay.option_indices) == 1
        assert (lay.option_indices[0] in gold_of[premise]) is lay.labels[0]


def test_epoch_pairs_negative_ratio_scales(setup):
    space, instances, vocab = setup
    cfg = TrainConfig(mode="te", negative_ratio=3.0)
    rng = np.random.default_rng(0)
    layouts = _epoch_pairs(instances, space, cfg, None, rng, vocab, TINY.max_len)
    labels = [lay.labels[0] for lay in layouts]
    assert labels.count(False) == 3 * labels.count(True)


def test_epoch_pairs_rejects_goldless_pool(setup):
    space, instances, vocab = setup
    candidates = {inst.id: sorted(inst.gold) for inst in instances}
    with pytest.raises(DataError):
        _epoch_pairs(instances, space, TrainConfig(mode="te"), candidates,
                     np.random.default_rng(0), vocab, TINY.max_len)


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(mode="rank")
    with pytest.raises(DataError):
        TrainConfig(mode="parallel", k=0)
    with pytest.raises(DataError):
        TrainConfig(mode="te", augment=True)
    with pytest.raises(DataError):
        TrainConfig(mode="te", negative_ratio=0.0)
    with pytest.raises(DataError, match="epochs"):
        TrainConfig(mode="te", epochs=0)
    with pytest.raises(DataError, match="batch_size"):
        TrainConfig(mode="te", batch_size=0)


def test_train_is_deterministic_per_seed(setup):
    space, instances, vocab = setup
    cfg = TrainConfig(mode="te", epochs=2, batch_size=4, learning_rate=1e-3, seed=5)
    runs = []
    for _ in range(2):
        model = EncoderModel(TINY, len(vocab))
        runs.append(train(model, instances, space, vocab, cfg).losses)
    assert runs[0] == runs[1]
    model = EncoderModel(TINY, len(vocab))
    other = train(model, instances, space, vocab,
                  TrainConfig(mode="te", epochs=2, batch_size=4,
                              learning_rate=1e-3, seed=6)).losses
    assert other != runs[0]


def test_context_k0_reduces_to_te(setup):
    space, instances, vocab = setup
    losses = {}
    for mode in ("te", "context"):
        model = EncoderModel(TINY, len(vocab))
        cfg = TrainConfig(mode=mode, k=0, epochs=1, batch_size=4, seed=3)
        losses[mode] = train(model, instances, space, vocab, cfg).losses
    assert losses["te"] == losses["context"]


def test_train_loss_decreases_and_reports(setup):
    space, instances, vocab = setup
    model = EncoderModel(TINY, len(vocab))
    cfg = TrainConfig(mode="parallel", k=3, epochs=10, batch_size=4,
                      learning_rate=3e-3, seed=0)
    report = train(model, instances, space, vocab, cfg, dev=instances)
    assert len(report.dev_metrics) == 10
    assert len(report.epoch_seconds) == 10
    assert all(s > 0 for s in report.epoch_seconds)
    steps_per_epoch = math.ceil(len(instances) / 4)
    assert len(report.losses) == 10 * steps_per_epoch
    assert np.mean(report.losses[-3:]) < np.mean(report.losses[:3])


def test_train_early_stop(setup):
    space, instances, vocab = setup
    model = EncoderModel(TINY, len(vocab))
    cfg = TrainConfig(mode="te", epochs=5, batch_size=4, seed=0, early_stop=0.0)
    report = train(model, instances, space, vocab, cfg, dev=instances)
    assert len(report.dev_metrics) == 1  # any accuracy clears a 0.0 bar
    assert len(report.losses) == math.ceil(2 * len(instances) / 4)  # one epoch of steps


def test_train_rejects_empty_dataset(setup):
    space, _, vocab = setup
    with pytest.raises(DataError):
        train(EncoderModel(TINY, len(vocab)), [], space, vocab,
              TrainConfig(mode="te"))


@pytest.mark.parametrize("fit", ["te", "bi-encoder"])
def test_non_finite_loss_stops_every_fit(setup, fit):
    space, instances, vocab = setup
    model = EncoderModel(TINY, len(vocab))
    model.tok_emb.data[...] = np.nan
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(NumericError, match="step 0"):
        if fit == "te":
            train(model, instances, space, vocab, TrainConfig(mode="te", epochs=1, batch_size=4))
        else:
            train_bi_encoder(model, instances, space, vocab, epochs=1, batch_size=4)
    # the failing step moved no weight
    for old, p in zip(before, model.parameters()):
        np.testing.assert_array_equal(old, p.data)


def _record_rates(monkeypatch):
    """The learning rate of every Adam step taken from here on."""
    rates, step = [], Adam.step

    def recording(self):
        step(self)
        rates.append(self.current_lr())

    monkeypatch.setattr(Adam, "step", recording)
    return rates


def test_train_schedule_ceil_warmup_then_decay_to_a_tenth(setup, monkeypatch):
    space, instances, vocab = setup
    rates = _record_rates(monkeypatch)
    lr = 1e-3
    # 16 pair layouts in batches of 3: T = 5 epochs x 6 steps = 30, warmup ceil(1.5) = 2
    train(EncoderModel(TINY, len(vocab)), instances, space, vocab,
          TrainConfig(mode="te", epochs=5, batch_size=3, learning_rate=lr))
    assert len(rates) == 30
    assert rates[:2] == [lr / 2, lr]
    assert rates[-1] == pytest.approx(0.1 * lr, rel=1e-12)
    np.testing.assert_allclose(np.diff(rates[1:]), -0.9 * lr / 28, rtol=1e-9)


def test_bi_encoder_schedule_floor_warmup_then_constant(setup, monkeypatch):
    space, instances, vocab = setup
    rates = _record_rates(monkeypatch)
    lr = 1e-3
    # 5 gold pairs in batches of 4: one step per epoch, the one-row tail is
    # skipped, so T = 50 and the warmup is int(2.5) = 2
    losses = train_bi_encoder(EncoderModel(TINY, len(vocab)), instances[:5], space, vocab,
                              epochs=50, batch_size=4, lr=lr)
    assert len(losses) == len(rates) == 50
    assert rates[0] == lr / 2
    assert rates[1:] == [lr] * 49


# ---------------------------------------------------------------------------
# threshold calibration and k selection
# ---------------------------------------------------------------------------


def _scored(values):
    return [ScoredOption(i, float(s)) for i, s in enumerate(values)]


def test_scan_threshold_separated_scores_tie_to_089():
    per_instance = [_scored([0.9, 0.1, 0.1]), _scored([0.1, 0.9, 0.1])]
    golds = [[0], [1]]
    tau, f1 = scan_threshold(per_instance, golds)
    assert f1 == 1.0
    assert tau == pytest.approx(0.89)


def test_scan_threshold_identical_scores_tie_to_049():
    per_instance = [_scored([0.5, 0.5])]
    tau, f1 = scan_threshold(per_instance, [[0, 1]])
    assert f1 == 1.0
    assert tau == pytest.approx(0.49)


def test_scan_threshold_matches_exhaustive_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_inst, n_opt = 6, 5
        per_instance, golds = [], []
        for _i in range(n_inst):
            per_instance.append(_scored(rng.uniform(size=n_opt)))
            n_gold = int(rng.integers(1, 4))
            golds.append(sorted(rng.choice(n_opt, size=n_gold, replace=False).tolist()))
        tau, f1 = scan_threshold(per_instance, golds)
        best = -1.0
        for cand in THRESHOLD_GRID:
            preds = [[so.index for so in scored if so.score > cand]
                     for scored in per_instance]
            best = max(best, example_averaged_prf(preds, golds)[2])
        assert f1 == pytest.approx(best)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def test_write_loss_csv(tmp_path, setup):
    from entsel.training import TrainReport
    path = tmp_path / "loss.csv"
    write_loss_csv(path, TrainReport(losses=[1.5, 0.25], dev_metrics=[],
                                     epoch_seconds=[]))
    assert path.read_text() == "step,loss\n0,1.5\n1,0.25\n"


def test_write_manifest_sorted_keys(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, TrainConfig(mode="te", epochs=2), extra={"zeta": 1, "alpha": 2})
    lines = path.read_text().splitlines()
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == sorted(keys)
    assert "mode=te" in lines and "epochs=2" in lines and "alpha=2" in lines
