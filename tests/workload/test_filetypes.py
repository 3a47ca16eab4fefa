"""The Table 2 file-type registry and samplers."""

import numpy as np
import pytest

from repro.core.clock import DAY
from repro.workload.filetypes import (
    TABLE2_TYPES,
    FileTypeModel,
    FileTypeSpec,
    lognormal_with_mean,
)


class TestTable2Registry:
    def test_five_types(self):
        assert [s.name for s in TABLE2_TYPES] == [
            "gif", "html", "jpg", "cgi", "other",
        ]

    def test_access_shares_sum_to_one(self):
        assert sum(s.access_share for s in TABLE2_TYPES) == pytest.approx(1.0)

    def test_paper_sizes(self):
        by_name = {s.name: s for s in TABLE2_TYPES}
        assert by_name["gif"].mean_size == 7791
        assert by_name["html"].mean_size == 4786
        assert by_name["jpg"].mean_size == 21608
        assert by_name["cgi"].mean_size == 5980

    def test_paper_lifespans(self):
        by_name = {s.name: s for s in TABLE2_TYPES}
        assert by_name["gif"].median_lifespan_days == 146
        assert by_name["jpg"].median_lifespan_days == 72
        assert by_name["cgi"].median_lifespan_days is None

    def test_only_cgi_dynamic(self):
        assert [s.name for s in TABLE2_TYPES if not s.cacheable] == ["cgi"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FileTypeSpec("x", access_share=1.5, mean_size=100,
                         avg_age_days=None, median_lifespan_days=None)
        with pytest.raises(ValueError):
            FileTypeSpec("x", access_share=0.5, mean_size=0,
                         avg_age_days=None, median_lifespan_days=None)


class TestLognormalWithMean:
    def test_mean_preserved(self, rng):
        draws = [lognormal_with_mean(rng, 100.0, 0.6) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(100.0, rel=0.05)

    def test_sigma_zero_is_constant(self, rng):
        assert lognormal_with_mean(rng, 42.0, 0.0) == 42.0

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            lognormal_with_mean(rng, 0.0, 0.5)
        with pytest.raises(ValueError):
            lognormal_with_mean(rng, 10.0, -0.1)


class TestFileTypeModel:
    def test_sample_types_follow_shares(self, rng):
        model = FileTypeModel()
        drawn = model.sample_types(rng, 50_000)
        gif_share = drawn.count("gif") / len(drawn)
        assert gif_share == pytest.approx(0.55, abs=0.02)

    def test_exclude_dynamic_renormalizes(self, rng):
        model = FileTypeModel(include_dynamic=False)
        drawn = model.sample_types(rng, 20_000)
        assert "cgi" not in drawn
        gif_share = drawn.count("gif") / len(drawn)
        assert gif_share == pytest.approx(0.55 / 0.91, abs=0.02)

    def test_sample_size_mean(self, rng):
        model = FileTypeModel()
        sizes = [model.sample_size(rng, "gif") for _ in range(20_000)]
        assert np.mean(sizes) == pytest.approx(7791, rel=0.06)

    def test_sample_size_floor(self, rng):
        model = FileTypeModel(size_sigma=3.0)
        sizes = [model.sample_size(rng, "html") for _ in range(2000)]
        assert min(sizes) >= 64

    def test_size_sigma_zero_exact(self, rng):
        model = FileTypeModel(size_sigma=0)
        assert model.sample_size(rng, "jpg") == 21608

    @pytest.mark.parametrize("sigma", [0.0, 0.8, 3.0])
    def test_sample_sizes_is_the_scalar_loop(self, sigma):
        model = FileTypeModel(size_sigma=sigma)
        types = model.sample_type_indices(np.random.default_rng(5), 3000)
        scalar = np.random.default_rng(11)
        loop = [model.sample_size(scalar, model.specs[i].name) for i in types]
        rng = np.random.default_rng(11)
        assert model.sample_sizes(rng, types).tolist() == loop
        assert rng.random() == scalar.random()

    def test_initial_age_positive_and_plausible(self, rng):
        model = FileTypeModel()
        ages = [model.sample_initial_age(rng, "gif") for _ in range(5000)]
        assert min(ages) >= 1 * DAY
        assert np.mean(ages) == pytest.approx(85 * DAY, rel=0.1)

    def test_initial_age_default_for_uncovered_types(self, rng):
        model = FileTypeModel()
        ages = [model.sample_initial_age(rng, "other") for _ in range(5000)]
        assert np.mean(ages) == pytest.approx(60 * DAY, rel=0.1)

    def test_unknown_type_raises(self):
        with pytest.raises(KeyError):
            FileTypeModel().spec("webp")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FileTypeModel(size_sigma=-1)
        with pytest.raises(ValueError):
            FileTypeModel(specs=[
                FileTypeSpec("cgi", 1.0, 100, None, None, cacheable=False)
            ], include_dynamic=False)
