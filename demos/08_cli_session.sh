#!/bin/sh
# A shell tour of the command line interface.
# Run from anywhere after `pip install -e .`; writes into a temp dir.
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

echo '== generate graphs =='
semicover gen petersen -o pet.graph
semicover gen f 1 1 -o f11.graph
semicover gen f 3 0 -o f30.graph
semicover gen cycle 6 -o c6.graph
wc -l pet.graph f11.graph

echo
echo '== does Petersen cover F(1,1)? (exit 0 = yes) =='
semicover check pet.graph f11.graph --witness | head -c 200; echo

echo
echo '== and F(3,0)? (exit 1 = no) =='
semicover check pet.graph f30.graph || echo "exit code $?"

echo
echo '== complexity of a target =='
semicover classify f30.graph || echo "exit code $? (3 = NP-complete)"

echo
echo '== double cover =='
semicover double-cover pet.graph -o despet.graph
head -3 despet.graph

echo
echo '== stronger-than up to order 10 =='
semicover gen w 0 0 2 0 0 -o w2.graph
semicover gen f 2 0 -o f20.graph
semicover stronger w2.graph f20.graph --max-n 10

echo
echo '== bin packing as equitable covering =='
semicover gen binpacking 3,3,2,2,2 2 --out-g items.graph --out-h bins2.graph
semicover check items.graph bins2.graph --semantics equitable --witness | head -c 300; echo
# items of two sizes onto equal bins: two decider calls give all ten pattern edges
semicover pattern items.graph bins2.graph
semicover gen binpacking 3,3,2,2,2 3 --out-g items.graph --out-h bins3.graph
semicover check items.graph bins3.graph --semantics equitable \
  || echo "exit code $? (three equal bins are impossible)"
