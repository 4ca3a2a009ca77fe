#include "me/me.h"

#include <algorithm>

#include "common/check.h"

namespace hdvb {

void
MotionEstimator::mv_bounds(const MeBlock &blk, int *min_x, int *max_x,
                           int *min_y, int *max_y) const
{
    const int range = params_.range;
    *min_x = std::max(-range, -kMeMargin - blk.x0);
    *max_x = std::min(range,
                      blk.ref->width() + kMeMargin - (blk.x0 + blk.w));
    *min_y = std::max(-range, -kMeMargin - blk.y0);
    *max_y = std::min(range,
                      blk.ref->height() + kMeMargin - (blk.y0 + blk.h));
    // Degenerate pictures smaller than the range still get (0,0).
    *max_x = std::max(*max_x, *min_x);
    *max_y = std::max(*max_y, *min_y);
}

int
MotionEstimator::sad_at(const MeBlock &blk, int mx, int my) const
{
    const Dsp &dsp = *params_.dsp;
    const Pixel *cur = blk.cur->row(blk.y0) + blk.x0;
    const int cs = blk.cur->stride();
    const Pixel *ref = blk.ref->row(blk.y0 + my) + blk.x0 + mx;
    const int rs = blk.ref->stride();
    if (blk.w == 16 && blk.h == 16) {
        if (blk.x0 % 16 == 0 && cs % 16 == 0) {
            // The Plane layout makes macroblock rows of the current
            // picture 16-byte aligned; the aligned-load kernel tier
            // depends on it, so assert before dispatching.
            HDVB_DCHECK(reinterpret_cast<uintptr_t>(cur) % 16 == 0);
            return dsp.sad16x16_a(cur, cs, ref, rs);
        }
        return dsp.sad16x16(cur, cs, ref, rs);
    }
    if (blk.w == 8 && blk.h == 8)
        return dsp.sad8x8(cur, cs, ref, rs);
    return dsp.sad_rect(cur, cs, ref, rs, blk.w, blk.h);
}

int
MotionEstimator::sad_at_bounded(const MeBlock &blk, int mx, int my,
                                int bound) const
{
    const Dsp &dsp = *params_.dsp;
    const Pixel *cur = blk.cur->row(blk.y0) + blk.x0;
    const int cs = blk.cur->stride();
    const Pixel *ref = blk.ref->row(blk.y0 + my) + blk.x0 + mx;
    const int rs = blk.ref->stride();
    if (blk.w == 16 && blk.h == 16)
        return dsp.sad16x16_et(cur, cs, ref, rs, bound);
    return dsp.sad_rect_et(cur, cs, ref, rs, blk.w, blk.h, bound);
}

MeResult
MotionEstimator::evaluate(const MeBlock &blk, MotionVector pred_sub,
                          int mx, int my, int best_cost) const
{
    MeResult r;
    r.mv = {static_cast<s16>(mx), static_cast<s16>(my)};
    const MotionVector mv_sub{
        static_cast<s16>(mx << params_.subpel_shift),
        static_cast<s16>(my << params_.subpel_shift)};
    const int rate = mv_rate_cost(mv_sub, pred_sub, params_.lambda16);
    if (params_.approx >= 1 && best_cost != INT32_MAX) {
        // A bail (partial > bound) makes cost = partial + rate >=
        // best_cost, so the caller's cost comparison rejects this
        // candidate exactly as the exact SAD would have — the approx
        // tier changes work done, never the winning vector.
        const int bound = std::max(best_cost - rate - 1, 0);
        r.sad = sad_at_bounded(blk, mx, my, bound);
    } else {
        r.sad = sad_at(blk, mx, my);
    }
    r.cost = r.sad + rate;
    return r;
}

MeResult
MotionEstimator::full_search(const MeBlock &blk,
                             MotionVector pred_sub) const
{
    int min_x, max_x, min_y, max_y;
    mv_bounds(blk, &min_x, &max_x, &min_y, &max_y);
    MeResult best;
    for (int my = min_y; my <= max_y; ++my) {
        for (int mx = min_x; mx <= max_x; ++mx) {
            const MeResult r =
                evaluate(blk, pred_sub, mx, my, best.cost);
            if (r.cost < best.cost)
                best = r;
        }
    }
    return best;
}

void
MotionEstimator::diamond_refine(const MeBlock &blk, MotionVector pred_sub,
                                MeResult *best) const
{
    int min_x, max_x, min_y, max_y;
    mv_bounds(blk, &min_x, &max_x, &min_y, &max_y);
    static const int kDx[4] = {-1, 1, 0, 0};
    static const int kDy[4] = {0, 0, -1, 1};
    bool improved = true;
    // Bound the walk so worst-case work stays proportional to range.
    for (int iter = 0; iter < 2 * params_.range && improved; ++iter) {
        improved = false;
        const MotionVector center = best->mv;
        for (int i = 0; i < 4; ++i) {
            const int mx = center.x + kDx[i];
            const int my = center.y + kDy[i];
            if (mx < min_x || mx > max_x || my < min_y || my > max_y)
                continue;
            const MeResult r =
                evaluate(blk, pred_sub, mx, my, best->cost);
            if (r.cost < best->cost) {
                *best = r;
                improved = true;
            }
        }
    }
}

MeResult
MotionEstimator::epzs(const MeBlock &blk, MotionVector pred_sub,
                      std::span<const MotionVector> cand_full) const
{
    int min_x, max_x, min_y, max_y;
    mv_bounds(blk, &min_x, &max_x, &min_y, &max_y);
    auto clamp_mv = [&](int mx, int my) {
        return MotionVector{
            static_cast<s16>(clamp(mx, min_x, max_x)),
            static_cast<s16>(clamp(my, min_y, max_y))};
    };

    // Candidate set: (0,0), the rounded spatial predictor, and the
    // caller's zonal candidates (neighbours, collocated, ...).
    MeResult best = evaluate(blk, pred_sub, 0, 0);
    const MotionVector pred_full =
        clamp_mv(pred_sub.x >> params_.subpel_shift,
                 pred_sub.y >> params_.subpel_shift);
    auto consider = [&](MotionVector mv) {
        if (mv == best.mv)
            return;
        const MeResult r =
            evaluate(blk, pred_sub, mv.x, mv.y, best.cost);
        if (r.cost < best.cost)
            best = r;
    };
    consider(pred_full);
    // EPZS early termination threshold: ~1 grey level per sample at
    // level 0, doubled per approx level — higher levels accept
    // rougher predictors to skip the refinement walk more often.
    const int threshold = exit_threshold(blk);
    for (const MotionVector &c : cand_full) {
        // approx >= 2: stop scanning zonal candidates once one is
        // already under the exit threshold.
        if (params_.approx >= 2 && best.sad < threshold)
            break;
        consider(clamp_mv(c.x, c.y));
    }

    // A predictor already this good will not be beaten by enough to
    // pay for a refinement walk.
    if (best.sad < threshold)
        return best;

    diamond_refine(blk, pred_sub, &best);
    return best;
}

MeResult
MotionEstimator::hex(const MeBlock &blk, MotionVector pred_sub,
                     std::span<const MotionVector> cand_full) const
{
    int min_x, max_x, min_y, max_y;
    mv_bounds(blk, &min_x, &max_x, &min_y, &max_y);
    auto clamp_mv = [&](int mx, int my) {
        return MotionVector{
            static_cast<s16>(clamp(mx, min_x, max_x)),
            static_cast<s16>(clamp(my, min_y, max_y))};
    };

    MeResult best = evaluate(blk, pred_sub, 0, 0);
    const MotionVector pred_full =
        clamp_mv(pred_sub.x >> params_.subpel_shift,
                 pred_sub.y >> params_.subpel_shift);
    auto consider = [&](MotionVector mv) {
        const MeResult r =
            evaluate(blk, pred_sub, mv.x, mv.y, best.cost);
        if (r.cost < best.cost)
            best = r;
    };
    if (pred_full != best.mv)
        consider(pred_full);
    const int threshold = exit_threshold(blk);
    for (const MotionVector &c : cand_full) {
        if (params_.approx >= 2 && best.sad < threshold)
            break;
        consider(clamp_mv(c.x, c.y));
    }

    // approx >= 1: a candidate already under threshold skips the
    // hexagon walk and the diamond ending entirely (level 0 keeps the
    // exact search, which has no such exit).
    if (params_.approx >= 1 && best.sad < threshold)
        return best;

    // Large hexagon (radius 2) iteration.
    static const int kHx[6] = {-2, -1, 1, 2, 1, -1};
    static const int kHy[6] = {0, -2, -2, 0, 2, 2};
    bool improved = true;
    for (int iter = 0; iter < 2 * params_.range && improved; ++iter) {
        improved = false;
        const MotionVector center = best.mv;
        for (int i = 0; i < 6; ++i) {
            const int mx = center.x + kHx[i];
            const int my = center.y + kHy[i];
            if (mx < min_x || mx > max_x || my < min_y || my > max_y)
                continue;
            const MeResult r =
                evaluate(blk, pred_sub, mx, my, best.cost);
            if (r.cost < best.cost) {
                best = r;
                improved = true;
            }
        }
    }

    // Small-diamond ending.
    diamond_refine(blk, pred_sub, &best);
    return best;
}

}  // namespace hdvb
